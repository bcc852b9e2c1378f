#!/bin/sh
# ci.sh — the checks a change must pass before merging:
# formatting, vet, doc coverage, full build, and the test suite under
# the race detector (the obs package is read concurrently by the HTTP
# endpoints while the simulation writes, and the metrics collector,
# action watchdog and admission queues are documented safe for
# concurrent use, so -race is load-bearing).
set -eux

# Formatting gate: gofmt prints offending files; any output fails.
test -z "$(gofmt -l .)"

go vet ./...

# Doc-coverage gate: every internal package must carry a package
# comment documenting its role and concurrency/ownership rules.
test -z "$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/...)"

go build ./...

# Fast race pass over the packages whose tests still start goroutines
# (short mode): producers with private log buffers racing a collector
# snapshotter, the obs endpoints read mid-emission, watchdog stats read
# during a rollback, and concurrent admission slot reservations.
go test -race -short -count=1 ./internal/metrics/ ./internal/obs/ ./internal/guard/ ./internal/admission/

# The experiments package alone runs about 13 min under the race
# detector (756 s on a 2-vCPU linux/amd64 VM, go1.24.0, against 1110 s
# when its tests ran one at a time): the chaos, overload, guard and
# adversarial suites are full simulations × 3 seeds each, run as
# parallel subtests, so the default 10 min per-package test timeout is
# not enough. -count=1 bypasses the test cache: a cached pass would run
# nothing under the race detector.
go test -race -count=1 -timeout 20m ./...

# Seed-pinned chaos smoke run: gray-failure + flapping under seed 1,
# short mode. The full 3-seed chaos suite already ran above; this run
# proves the scenarios stay deterministic and clean when invoked the
# way an operator would rerun them.
go test -short -run TestChaosSmoke -count=1 ./internal/experiments/

# Overload smoke run: the 2x load pulse must shed lowest-impact classes
# first, keep the protected class inside its latency bound, and readmit
# everything once the pulse passes — rerun seed-pinned like the chaos
# smoke above.
go test -short -run 'TestOverloadProtection|TestOverloadDeterminism' -count=1 ./internal/experiments/

# Event-core smoke: TestEventCoreDeterminism runs the §5.3 diagnosis
# scenario twice through the discrete-event core under 2 pinned seeds
# (short mode) and requires byte-identical metrics snapshots and span
# trees; TestEventCorePhaseTraffic requires the engines to commit every
# service phase through their event queues. The full 3-seed sweep
# already ran above; this rerun pins the operator-facing invocation. See
# DESIGN.md §10.
go test -short -run TestEventCore -count=1 ./internal/experiments/

# Example programs: every examples/* program must run to completion, and
# a second run must print byte-identical output, so no example's output
# may follow Go map order. indexdrop is the one program outside
# internal/experiments that builds a core.Controller, and its run must
# show the controller enforcing a buffer-pool quota.
BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "$BENCH_TMP"' EXIT
for ex in examples/*/; do
	name="$(basename "$ex")"
	go run "./$ex" >"$BENCH_TMP/example_$name.txt"
	go run "./$ex" >"$BENCH_TMP/example_${name}_rerun.txt"
	diff "$BENCH_TMP/example_$name.txt" "$BENCH_TMP/example_${name}_rerun.txt"
done
grep -q enforce-quota "$BENCH_TMP/example_indexdrop.txt"

# Performance regression gate: run the suite in short mode and compare
# against the committed seed baseline at ±30% — wide enough to absorb
# machine-to-machine variance, tight enough to catch a hot path going
# quadratic. benchrunner itself skips the comparison (exit 0, with a
# notice) when the host is too noisy to gate, so a loaded CI runner
# degrades to a warning instead of a flaky failure. See PERFORMANCE.md.
go run ./cmd/benchrunner -suite.short -out "$BENCH_TMP/BENCH_ci.json" -baseline BENCH_0.json -tol 0.30

# Benchmark module: perfbench is a Go module of its own (replace
# outlierlb => ../), so the root `go vet ./...` and `go test ./...` above
# never build it.
(cd perfbench && go vet ./... && go test ./...)

# Benchmark smoke run: one short overload-sweep run, built from source
# the way BENCHMARK.json runs it. Its last line is the JSON result, which
# must report every scenario call correct and none failed.
PERF_RESULT="$(bash perfbench/run.sh --workload overload-sweep --seed 1 --seconds 3 --trace 0 | tail -n 1)"
echo "$PERF_RESULT" | grep -q '"correct":true'
echo "$PERF_RESULT" | grep -q '"failed":0,'

# Tracetool smoke: record a fully-traced §5.2 run to a flight-recorder
# file, then make tracetool decode it strictly and render the per-phase
# breakdown (tracetool exits non-zero on any malformed span tree).
go run ./cmd/outlierlb -scenario cpu -trace.sample 1.0 -run.out "$BENCH_TMP/RUN_ci.json" >/dev/null
go run ./cmd/tracetool -run "$BENCH_TMP/RUN_ci.json" -phases >/dev/null

# Temporal workload smoke: one flash-crowd surge under seed 1 through
# benchrunner's experiment runner — the open-loop driver, the surge
# provisioning, and the decay-side shrink all exercised the way an
# operator would invoke them (the full 3-seed suite already ran under
# -race above).
go run ./cmd/benchrunner -exp flash-crowd -seed 1 >/dev/null

# Trace record/replay identity: record the flash-crowd offered load to
# a workload-trace-v2 file via -wl.record, replay it via -wl.replay,
# and require byte-identical stdout. This gates the whole recording
# seam end to end — CLI flags, trace codec, replayer scheduling — on
# top of the in-process TestFig3RecordReplayIdentity that already ran
# in the test suite. See WORKLOADS.md §6.
go run ./cmd/outlierlb -scenario flash-crowd -seed 1 \
	-wl.record "$BENCH_TMP/fc_ci.trace" >"$BENCH_TMP/fc_live.txt"
go run ./cmd/outlierlb -scenario flash-crowd -seed 1 \
	-wl.replay "$BENCH_TMP/fc_ci.trace" >"$BENCH_TMP/fc_replay.txt"
diff "$BENCH_TMP/fc_live.txt" "$BENCH_TMP/fc_replay.txt"

# Rerun determinism: every scenario must print byte-identical output on
# a rerun of the same seed. guard-always-busiest-placement is pinned
# here because its memory diagnosis once followed Go map order and
# printed different quota details from rerun to rerun. Each seed runs
# twice with -v (the decision narration on stderr included) and the two
# outputs must match.
go build -o "$BENCH_TMP/outlierlb" ./cmd/outlierlb
for seed in 1 2 3; do
	"$BENCH_TMP/outlierlb" -scenario guard-always-busiest-placement -seed "$seed" -v \
		>"$BENCH_TMP/det_first.txt" 2>&1
	"$BENCH_TMP/outlierlb" -scenario guard-always-busiest-placement -seed "$seed" -v \
		>"$BENCH_TMP/det_second.txt" 2>&1
	diff "$BENCH_TMP/det_first.txt" "$BENCH_TMP/det_second.txt"
done

# Resilience gate: one adversarial fault (clock skew), one pathological
# policy (reject-all admission), two control-channel faults (full
# controller partition, lossy channel under a load pulse), and one
# temporal surge (flash crowd, which also asserts replay fidelity via
# trace-replay-identity above) across the pinned 3 seeds. -assert fails
# the run unless every scorecard shows the fault detected, visible
# mitigation where demanded (retries and epoch fences for the channel
# faults, watchdog rollback for guard-*, provisioning for the surge),
# and steady state recovered within the 300 s budget; the scorecards
# are then persisted as a RESIL_*.json and round-tripped through
# tracetool's strict loader.
go run ./cmd/benchrunner -resil \
	-resil.scenarios clock-skew,guard-reject-all-admission,ctrl-partition,ctrl-lossy,flash-crowd,trace-replay-identity \
	-resil.seeds 1,2,3 -assert -out "$BENCH_TMP/RESIL_ci.json"
go run ./cmd/tracetool -resil "$BENCH_TMP/RESIL_ci.json" >/dev/null

# Static-analysis gate: staticcheck at a pinned version so CI and
# developer machines agree on the rule set. The tool is not vendored and
# CI never installs anything, so the gate is skipped with a notice when
# the binary is absent; install locally with
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1
STATICCHECK_VERSION="2025.1"
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck -version 2>/dev/null | grep -q "$STATICCHECK_VERSION" || {
		echo "ci.sh: staticcheck is not the pinned $STATICCHECK_VERSION" >&2
		exit 1
	}
	staticcheck ./...
else
	echo "ci.sh: staticcheck $STATICCHECK_VERSION not installed; skipping static-analysis gate" >&2
fi

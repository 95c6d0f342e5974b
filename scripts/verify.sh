#!/bin/sh
# Tier-1 verification gate (ROADMAP.md): build, vet, full test suite,
# a -race smoke over the concurrent planner and sweep paths,
# a one-iteration benchmark sanity run, and a benchmark-regression check
# against the committed BENCH_*.json snapshot. Usage: scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

# Static analysis beyond vet. Each tool runs only when it is already
# installed, on PATH or in GOBIN (GOPATH/bin when GOBIN is unset); the
# gate never installs anything. staticcheck findings are a hard failure
# wherever the tool exists.
GOBIN_DIR="$(go env GOBIN)"
[ -n "$GOBIN_DIR" ] || GOBIN_DIR="$(go env GOPATH)/bin"
find_tool() {
	command -v "$1" 2>/dev/null || { [ -x "$GOBIN_DIR/$1" ] && echo "$GOBIN_DIR/$1"; } || true
}
STATICCHECK="$(find_tool staticcheck)"
if [ -n "$STATICCHECK" ]; then
	echo "== staticcheck"
	"$STATICCHECK" ./...
else
	echo "== staticcheck: not installed; skipping"
fi
GOVULNCHECK="$(find_tool govulncheck)"
if [ -n "$GOVULNCHECK" ]; then
	echo "== govulncheck (advisory)"
	"$GOVULNCHECK" ./... || echo "govulncheck: findings above are advisory; not failing the gate"
else
	echo "== govulncheck: not installed; skipping"
fi

echo "== go test"
go test ./...

echo "== race smoke (scripts/race_smoke.sh)"
scripts/race_smoke.sh

# The sweep's warm-shard determinism contract ("bit-identical at any -j")
# must hold whatever the host gives the scheduler: run the determinism
# tests at two GOMAXPROCS settings so both the starved and the saturated
# worker pools are exercised under the race detector.
echo "== sweep determinism at two worker-pool widths (race)"
GOMAXPROCS=2 go test -race -run 'TestSweepParallelDeterministic|TestSweepDominance' ./internal/expt/
GOMAXPROCS=8 go test -race -run 'TestSweepParallelDeterministic|TestSweepDominance' ./internal/expt/

# Flush ordering assumptions in the experiment harness: row-affinity
# scheduling must not depend on test execution order.
echo "== shuffled tests (internal/expt)"
go test -shuffle=on ./internal/expt/

echo "== benchmark sanity (1 iteration)"
go test -run '^$' -bench 'BenchmarkFig6ResNet50|BenchmarkMadPipeDP$' -benchtime 1x .

# Timing on shared machines swings by integer factors, so the tier-1
# gate fails only on allocation regressions (deterministic: fixed
# seeds); the threshold absorbs sync.Pool variance under GC pressure.
# ns/op deltas still print for the reviewer.
echo "== benchmark regression check (gate: allocs/op + live warm reuse: warm states/op < cold)"
go run ./cmd/benchdiff -bench 'BenchmarkMadPipeDP$|BenchmarkAlgorithm1$|BenchmarkAlgorithm1Sweep' -benchtime 5x -write=false -gate allocs -threshold 0.5 -warm

# The sweep's probe count is an exact function of the grid and the
# dominance machinery: any drift is a planner-behavior change and fails
# the gate outright (at -threshold 0 benchdiff fails a move in either
# direction). Wall time on the same series stays advisory.
echo "== sweep probe-count regression check (gate: probes/op, exact)"
go run ./cmd/benchdiff -bench 'BenchmarkFig7Sweep$' -benchtime 1x -write=false -gate probes -threshold 0

# The frontier solver's probe economics are likewise exact for a fixed
# ladder: probes/op (what per-cell bisection would fold at the same
# limits) and dpprobes/op (what the frontier actually ran) pin the
# >= 3x DP-probe reduction — a drift in either is a certificate- or
# walk-behavior change and fails the gate outright. pins/op counts the
# probes' memory-interval pins, which stop at a probe's first
# certificate adoption: a drift means pins run where they can no longer
# widen a claim, or a claim lost pins it needs.
echo "== frontier probe-economics regression check (gate: probes/op + dpprobes/op + pins/op, exact)"
go run ./cmd/benchdiff -bench 'BenchmarkFig7Frontier$' -benchtime 1x -write=false -gate probes/op,dpprobes/op,pins/op -threshold 0

# The transformer coarsening pass's economics are exact for a fixed
# chain and discretization: states/op counts DP states the phase-1
# search evaluated on the coarse chain, coarselayers/op and rawlayers/op
# pin the 2050 -> 34 layer reduction. Any drift is a coarsening- or
# search-behavior change and fails the gate outright; ns/op and B/op on
# the same series stay advisory.
echo "== transformer coarsening regression check (gate: states/op + coarse/raw layers, exact)"
go run ./cmd/benchdiff -bench 'BenchmarkGPTCoarsen$' -benchtime 1x -write=false -gate states/op,coarselayers/op,rawlayers/op -threshold 0

# The raw (uncoarsened) transformer path plans 2050 layers on blocked
# storage through the 4-way probe fan: states/op pins the search's DP
# work — a drift in either direction is a solver-behavior change and
# fails the gate outright. blocksalloc/op stays advisory, as does ns/op; the
# resident/virtual bound is gated by
# TestTransformerLongChainPlan. This is the most expensive gate in the
# file (one concurrent probe round over a 36M-state virtual table,
# about a minute of wall clock).
echo "== raw transformer blocked-parallel regression check (gate: states/op + rawlayers/op, exact)"
go run ./cmd/benchdiff -bench 'BenchmarkGPTRawParallel$' -benchtime 1x -write=false -gate states/op,rawlayers/op -threshold 0

# One raw 1026-layer probe (the shape of every serve_gpt2_raw plan):
# states/op and cuts/op are exact functions of the input, so any drift —
# up or down — is a solver-behavior change and fails outright, and
# floorskip/op (children the work-conservation floor skipped) prints
# beside them.
echo "== raw long-chain probe (gate: states/op + cuts/op, exact)"
go run ./cmd/benchdiff -bench 'BenchmarkGPTRawProbe$' -benchtime 1x -write=false -gate states/op,cuts/op -threshold 0 || {
	echo "raw long-chain probe work drifted from the snapshot"
	exit 1
}

# The serving layer's memo economics are an exact function of the
# deterministic request mix at one client (no concurrent first contacts
# can split a miss): any drift in misses/op is a fingerprint- or
# memo-behavior change and fails the gate outright. plans/s, latency
# quantiles and hitspeedup-x stay advisory.
echo "== serving memo regression check (gate: misses/op, exact)"
go run ./cmd/benchdiff -bench 'BenchmarkServeLoad1$' -benchtime 1x -write=false -gate misses/op -threshold 0

# The observability plane must be free when off and allocation-free
# when on: with no Registry every obs hook is a nil-receiver no-op
# behind one pointer check, and the enabled span/histogram/flight fold
# runs entirely on preallocated atomics and rings. Both paths are
# pinned at exactly 0 allocs/op by hard greps, whatever the snapshot
# holds; the benchdiff run gates allocs/op against the snapshot exactly
# and keeps the ns/op delta visible for review.
echo "== serving observability overhead (both paths: 0 allocs/op, exact)"
OBS_BENCH="$(go test -run '^$' -bench 'BenchmarkServeObsOverhead' -benchmem -benchtime 1000x .)"
echo "$OBS_BENCH"
echo "$OBS_BENCH" | grep 'ServeObsOverhead/disabled' | grep -q ' 0 allocs/op' || {
	echo "disabled observability path allocates; the serving fast path regressed"
	exit 1
}
echo "$OBS_BENCH" | grep 'ServeObsOverhead/enabled' | grep -q ' 0 allocs/op' || {
	echo "enabled observability path allocates; span/hist/flight fold regressed"
	exit 1
}
go run ./cmd/benchdiff -bench 'BenchmarkServeObsOverhead' -benchtime 1000x -write=false -gate allocs -threshold 0

# End-to-end daemon smoke: boot madpiped on an ephemeral port, run the
# madpipeload smoke (health check, the pinned Fig 6 plan posted three
# times — the byte-identical repeat and an indented re-encoding must be
# bit-identical memo hits under the miss's fingerprint, and /v1/stats
# must count exactly one body-alias hit —, a frontier request, a
# /metrics scrape that requires the Prometheus latency histogram
# families [madpipe_serve_req_plan_bucket/_count, serve_span_plan,
# serve_slo_*], and a /debug/requests tail that must show the three plan
# requests in order as miss, hit, hit with equal fingerprints and plan
# time only on the miss), assert the served plan's headline fields
# match the committed results/planreport_fig6.json, then SIGTERM and
# require a clean drain.
echo "== daemon serving smoke (madpiped + madpipeload)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
go build -o "$SMOKE_DIR/madpiped" ./cmd/madpiped
go build -o "$SMOKE_DIR/madpipeload" ./cmd/madpipeload
"$SMOKE_DIR/madpiped" -addr 127.0.0.1:0 -addr-file "$SMOKE_DIR/addr" >"$SMOKE_DIR/daemon.log" 2>&1 &
DAEMON_PID=$!
i=0
while [ ! -s "$SMOKE_DIR/addr" ] && [ "$i" -lt 100 ]; do
	i=$((i + 1))
	sleep 0.1
done
[ -s "$SMOKE_DIR/addr" ] || { echo "daemon never bound"; cat "$SMOKE_DIR/daemon.log"; exit 1; }
"$SMOKE_DIR/madpipeload" -addr "$(cat "$SMOKE_DIR/addr")" -smoke -out "$SMOKE_DIR/fig6.json"
for field in predicted_period target_period; do
	want="$(grep "\"$field\"" results/planreport_fig6.json)"
	got="$(grep "\"$field\"" "$SMOKE_DIR/fig6.json")"
	if [ "$want" != "$got" ]; then
		echo "daemon $field diverges from the committed Fig 6 report:"
		echo "  got:  $got"
		echo "  want: $want"
		exit 1
	fi
done
echo "daemon Fig 6 headline matches results/planreport_fig6.json"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "daemon exited non-zero after SIGTERM"; cat "$SMOKE_DIR/daemon.log"; exit 1; }
grep -q "drained cleanly" "$SMOKE_DIR/daemon.log" || { echo "daemon did not drain cleanly"; cat "$SMOKE_DIR/daemon.log"; exit 1; }
echo "daemon drained cleanly on SIGTERM"

# A SIGTERM sent the moment the address file appears must drain too:
# the daemon traps its shutdown signals before announcing the address.
# The poll spins without sleeping so the signal lands as early as a
# supervisor's would.
"$SMOKE_DIR/madpiped" -addr 127.0.0.1:0 -addr-file "$SMOKE_DIR/addr-early" >"$SMOKE_DIR/early.log" 2>&1 &
EARLY_PID=$!
i=0
until [ -s "$SMOKE_DIR/addr-early" ]; do
	i=$((i + 1))
	[ "$i" -lt 2000000 ] || { echo "early-signal daemon never bound"; cat "$SMOKE_DIR/early.log"; exit 1; }
done
kill -TERM "$EARLY_PID"
wait "$EARLY_PID" || { echo "daemon exited non-zero on a SIGTERM at announce time"; cat "$SMOKE_DIR/early.log"; exit 1; }
grep -q "drained cleanly" "$SMOKE_DIR/early.log" || { echo "daemon did not drain on a SIGTERM at announce time"; cat "$SMOKE_DIR/early.log"; exit 1; }
echo "daemon drained cleanly on a SIGTERM at announce time"

echo "verify: OK"

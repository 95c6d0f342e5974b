GO ?= go

.PHONY: all build test verify race bench bench-quick bench-warm bench-serve vet obs-demo fig6-fixtures serve obs-serve-demo

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate (see ROADMAP.md), delegated wholesale to
# scripts/verify.sh: build, vet, staticcheck, full tests, -race smokes
# over the concurrent probe/sweep/frontier paths, shuffled
# expt tests, a one-shot benchmark sanity run, and exact regression
# checks against the committed BENCH_*.json snapshots (allocs, sweep
# probes/op, frontier probes/op + dpprobes/op, transformer and raw
# long-chain states/op, raw probe cuts/op; an exact gate fails a move in
# either direction; ns/op deltas print for review only — shared-machine
# timing noise swings by integer factors).
verify:
	scripts/verify.sh

# race runs the -race smoke list verify.sh runs (scripts/race_smoke.sh).
race:
	scripts/race_smoke.sh

# bench runs the regression suite, writes BENCH_<date>.json and fails on
# ns/op or allocs/op regressions against each bench's newest recorded
# baseline. The pattern covers every bench verify.sh gates, so a new
# snapshot re-pins all of them at once. GPTRawParallel adds ~10 s per
# iteration — the raw 2050-layer probe round dominates the run — and
# GPTRawProbe (one raw 1026-layer probe) a couple of seconds.
bench:
	$(GO) run ./cmd/benchdiff -bench 'BenchmarkFig6ResNet50|BenchmarkFig7AllNetworks|BenchmarkFig7Sweep|BenchmarkFig7Frontier|BenchmarkFig8Speedup|BenchmarkMadPipeDP|BenchmarkAlgorithm1|BenchmarkListScheduler|BenchmarkServeLoad|BenchmarkServeMemo|BenchmarkServeObsOverhead|BenchmarkGPTCoarsen|BenchmarkGPTRawParallel|BenchmarkGPTRawProbe' -benchtime 3x

# bench-quick compares without recording a snapshot.
bench-quick:
	$(GO) run ./cmd/benchdiff -bench 'BenchmarkFig6ResNet50|BenchmarkMadPipeDP' -benchtime 3x -write=false

# bench-warm runs the interleaved cold/warm reuse A/B (go test -count
# alternates the Cold and Warm sweep benchmarks, so both sides see the
# same thermal and cache conditions), prints the cold/warm column pairs
# and snapshots a BENCH_<date>.json. Fails unless the warm side evaluates
# strictly fewer DP states than the cold side.
bench-warm:
	$(GO) run ./cmd/benchdiff -bench 'BenchmarkAlgorithm1Sweep' -benchtime 3x -count 3 -warm

# bench-serve runs the serving benchmarks alone (plans/sec, latency
# quantiles, memo hit economics at 1/8/64 clients plus the isolated
# hit-vs-cold pair) and compares against the committed snapshot without
# recording a new one. misses/op is exact only at one client (concurrent
# first contacts each record a miss before single-flight collapses
# them), so only ServeLoad1 is gated; the c=8/64 runs print for review.
bench-serve:
	$(GO) run ./cmd/benchdiff -bench 'BenchmarkServeLoad1$$|BenchmarkServeMemo' -benchtime 1x -write=false -gate misses/op -threshold 0
	$(GO) run ./cmd/benchdiff -bench 'BenchmarkServeLoad8$$|BenchmarkServeLoad64$$' -benchtime 1x -write=false

# serve boots the planning daemon on its default port with defaults
# suitable for local use; madpipeload (or curl) can then POST /v1/plan.
serve:
	$(GO) run ./cmd/madpiped -addr 127.0.0.1:7333

# obs-demo plans ResNet-50 with full observability: the PlanReport prints
# to stdout, and /metrics, /debug/vars and /debug/pprof serve on an
# ephemeral port while the planner runs (the URL prints first).
obs-demo:
	$(GO) run ./cmd/madpipe -net resnet50 -p 4 -mem 10 -bw 12 -ilp 0 -gantt 0 -sim 0 -listen 127.0.0.1:0 -stats -

# fig6-fixtures regenerates the committed Figure 6 planner samples,
# results/planreport_fig6.json and results/plantrace_fig6.json, with the
# worker budget pinned to a probe fan of 4, so every host writes the
# same planner outputs (only wall-clock fields differ).
# TestProbeStatesPinnedToFig6Report and verify.sh's daemon smoke read
# them.
fig6-fixtures:
	$(GO) run ./cmd/madpipe -net resnet50 -p 4 -mem 10 -bw 12 -ilp 0 -gantt 0 -sim 0 -parallel 4 -stats results/planreport_fig6.json -trace results/plantrace_fig6.json

# obs-serve-demo is the request-level observability tour: boot madpiped
# on an ephemeral port, run the madpipeload concurrency ladder (latency
# quantiles incl. p999, server-side per-phase attribution table, flight
# recorder tail), then scrape /debug/requests (JSON) and save the
# Perfetto serving trace (/debug/requests?trace=1) next to the log.
obs-serve-demo:
	scripts/obs_serve_demo.sh

#!/usr/bin/env bash
# Builds madpiped and the benchmark from the checkout this script sits in,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve_cnn_mix --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare <old results dir> <new results dir>
#
# Run it from the repository root. Every build product, the Go build
# cache and the result files stay under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/perfbench/run.sh" ]]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/madpiped" ]]; then
  echo "perfbench: no madpipe module (go.mod, cmd/madpiped) in $root" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config/go/telemetry" "$out/gopath"
# Telemetry off: in its default mode the go command starts a detached
# sidecar process (its own session) that can outlive the build.
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
  GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if ! { go build -o "$out/madpiped" ./cmd/madpiped && (cd perfbench && go build -o "$out/perfbench" .); } >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec "$out/perfbench" -root "$root" -daemon "$out/madpiped" -out "$out/results" "$@"

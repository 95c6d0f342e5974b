package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: madpipe
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig6ResNet50 	       5	  60568631 ns/op	       353.7 madpipe-ms	       495.3 pipedream-ms	         1.400 ratio	  276681 B/op	    2024 allocs/op
BenchmarkMadPipeDP-8  	       3	   5932725 ns/op	    2440 B/op	      11 allocs/op
PASS
ok  	madpipe	0.944s
`

func TestParseBench(t *testing.T) {
	results := parseBench(sample)
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	fig6 := results[0]
	if fig6.Name != "Fig6ResNet50" || fig6.Iterations != 5 {
		t.Fatalf("bad first result: %+v", fig6)
	}
	for unit, want := range map[string]float64{
		"ns/op": 60568631, "B/op": 276681, "allocs/op": 2024,
		"madpipe-ms": 353.7, "pipedream-ms": 495.3, "ratio": 1.4,
	} {
		if got := fig6.Metrics[unit]; got != want {
			t.Errorf("Fig6 %s = %g, want %g", unit, got, want)
		}
	}
	// The -8 GOMAXPROCS suffix must be stripped for cross-machine diffs.
	if results[1].Name != "MadPipeDP" {
		t.Errorf("suffix not stripped: %q", results[1].Name)
	}
	if results[1].Metrics["ns/op"] != 5932725 {
		t.Errorf("MadPipeDP ns/op = %g", results[1].Metrics["ns/op"])
	}
	h := parseHost(sample)
	if h.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || h.GOOS != runtime.GOOS || h.GOARCH != runtime.GOARCH ||
		h.NumCPU < 1 || h.GOMAXPROCS < 1 {
		t.Errorf("host %+v", h)
	}
}

// testHost is the host both sides of a same-machine comparison share.
var testHost = &Host{CPU: "test cpu", NumCPU: 2, GOMAXPROCS: 2, GOOS: "linux", GOARCH: "amd64"}

func TestCompareRegression(t *testing.T) {
	gateAll := map[string]bool{"ns/op": true, "allocs/op": true}
	prev := &Snapshot{Host: testHost, Results: []Result{{Name: "X", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 10}}}}
	stampHost(prev)
	same := &Snapshot{Host: testHost, Results: []Result{{Name: "X", Metrics: map[string]float64{"ns/op": 105, "allocs/op": 10}}}}
	if compare(prev, same, "prev.json", 0.10, gateAll) {
		t.Errorf("5%% slowdown flagged at 10%% threshold")
	}
	worse := &Snapshot{Host: testHost, Results: []Result{{Name: "X", Metrics: map[string]float64{"ns/op": 150, "allocs/op": 10}}}}
	if !compare(prev, worse, "prev.json", 0.10, gateAll) {
		t.Errorf("50%% slowdown not flagged")
	}
	moreAllocs := &Snapshot{Host: testHost, Results: []Result{{Name: "X", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 20}}}}
	if !compare(prev, moreAllocs, "prev.json", 0.10, gateAll) {
		t.Errorf("2x allocs not flagged")
	}
	// -gate allocs: timing regressions report but do not fail.
	if compare(prev, worse, "prev.json", 0.10, map[string]bool{"allocs/op": true}) {
		t.Errorf("ns/op regression flagged despite allocs-only gate")
	}
	// A benchmark present only in the baseline reports as gone, not a failure.
	gone := &Snapshot{Results: []Result{{Name: "Y", Metrics: map[string]float64{"ns/op": 1}}}}
	if compare(prev, gone, "prev.json", 0.10, gateAll) {
		t.Errorf("baseline-only benchmark treated as a regression")
	}
}

func TestParseGate(t *testing.T) {
	got, err := parseGate("time,allocs,states,bytes")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"ns/op", "allocs/op", "states/op", "B/op"} {
		if !got[u] {
			t.Errorf("gate missing %s: %v", u, got)
		}
	}
	// Literal units pass through for custom deterministic counters.
	got, err = parseGate("certs/op")
	if err != nil {
		t.Fatal(err)
	}
	if !got["certs/op"] {
		t.Errorf("literal unit not gated: %v", got)
	}
	if _, err := parseGate("bogus"); err == nil {
		t.Error("unknown alias without a slash accepted")
	}
	if got, err := parseGate(""); err != nil || len(got) != 0 {
		t.Errorf("empty gate: %v, %v", got, err)
	}
}

func TestCompareGatesStatesCounter(t *testing.T) {
	// The planner's states/op counter is deterministic, so the gate can
	// run at threshold 0: any growth in the explored search space fails.
	gate := map[string]bool{"states/op": true}
	prev := &Snapshot{Results: []Result{{Name: "DP", Metrics: map[string]float64{"ns/op": 100, "states/op": 5000}}}}
	same := &Snapshot{Results: []Result{{Name: "DP", Metrics: map[string]float64{"ns/op": 900, "states/op": 5000}}}}
	if compare(prev, same, "prev.json", 0, gate) {
		t.Error("unchanged states/op flagged (ns/op is ungated)")
	}
	worse := &Snapshot{Results: []Result{{Name: "DP", Metrics: map[string]float64{"ns/op": 100, "states/op": 5001}}}}
	if !compare(prev, worse, "prev.json", 0, gate) {
		t.Error("states/op growth not flagged at zero threshold")
	}
}

func TestCompareExactGateBothDirections(t *testing.T) {
	// At threshold 0 an exact counter that falls fails too: a drop is a
	// search-behavior change that must be re-pinned, not a free pass
	// that keeps the stale value as the baseline.
	gate := map[string]bool{"states/op": true}
	prev := &Snapshot{Results: []Result{{Name: "DP", Metrics: map[string]float64{"ns/op": 100, "states/op": 5000}}}}
	fewer := &Snapshot{Results: []Result{{Name: "DP", Metrics: map[string]float64{"ns/op": 50, "states/op": 4999}}}}
	if !compare(prev, fewer, "prev.json", 0, gate) {
		t.Error("states/op drop passed an exact gate")
	}
	// A relative threshold still fails only rises.
	if compare(prev, fewer, "prev.json", 0.10, gate) {
		t.Error("states/op drop flagged at a 10% threshold")
	}
	// Ungated metrics never fail, whichever way they move.
	if compare(prev, fewer, "prev.json", 0, map[string]bool{"allocs/op": true}) {
		t.Error("ungated drop flagged at threshold 0")
	}
	// A zero baseline is exact too.
	zero := &Snapshot{Results: []Result{{Name: "DP", Metrics: map[string]float64{"allocs/op": 0}}}}
	one := &Snapshot{Results: []Result{{Name: "DP", Metrics: map[string]float64{"allocs/op": 1}}}}
	if !compare(zero, one, "prev.json", 0, map[string]bool{"allocs/op": true}) {
		t.Error("allocs/op 0 -> 1 passed an exact gate")
	}
}

func TestBaselinePerBenchmark(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s Snapshot) {
		t.Helper()
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCH_2026-01-01.json", Snapshot{Date: "2026-01-01", Results: []Result{
		{Name: "Sweep", Metrics: map[string]float64{"states/op": 1}},
		{Name: "Raw", Metrics: map[string]float64{"states/op": 100}},
	}})
	write("BENCH_2026-01-02.json", Snapshot{Date: "2026-01-02", Results: []Result{
		{Name: "Raw", Metrics: map[string]float64{"states/op": 90}},
	}})
	// The newest snapshot is narrow: it holds only Sweep.
	write("BENCH_2026-01-02b.json", Snapshot{Date: "2026-01-02", Results: []Result{
		{Name: "Sweep", Metrics: map[string]float64{"states/op": 2}},
	}})
	cur := &Snapshot{Results: []Result{
		{Name: "Sweep", Metrics: map[string]float64{"states/op": 2}},
		{Name: "Raw", Metrics: map[string]float64{"states/op": 90}},
		{Name: "Fresh", Metrics: map[string]float64{"states/op": 7}},
	}}
	prev, path, err := baseline(dir, cur)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_2026-01-02b.json"); path != want {
		t.Errorf("baseline path %s, want the newest snapshot %s", path, want)
	}
	got := map[string]Result{}
	for _, r := range prev.Results {
		got[r.Name] = r
	}
	if r := got["Sweep"]; r.Metrics["states/op"] != 2 || r.From != "" {
		t.Errorf("Sweep baseline %+v, want the newest snapshot's", r)
	}
	if r := got["Raw"]; r.Metrics["states/op"] != 90 || r.From != filepath.Join(dir, "BENCH_2026-01-02.json") {
		t.Errorf("Raw baseline %+v, want the newest snapshot that has it", r)
	}
	if _, ok := got["Fresh"]; ok {
		t.Error("a benchmark no snapshot has got a baseline")
	}
	gate := map[string]bool{"states/op": true}
	if compare(prev, cur, path, 0, gate) {
		t.Error("unchanged counters flagged against the assembled baseline")
	}
	cur.Results[1].Metrics["states/op"] = 91
	if !compare(prev, cur, path, 0, gate) {
		t.Error("Raw drift passed: its baseline was stripped by the narrow snapshot")
	}
	if prev, _, err := baseline(t.TempDir(), cur); err != nil || prev != nil {
		t.Errorf("empty dir: baseline %v, %v; want nil, nil", prev, err)
	}
}

func TestCompareOtherHost(t *testing.T) {
	// ns/op from another host, or from a snapshot without one, gets no
	// verdict; allocs/op and exact counters are machine-independent and
	// stay gated.
	gate := map[string]bool{"ns/op": true, "allocs/op": true, "states/op": true}
	other := *testHost
	other.CPU = "another cpu"
	cur := &Snapshot{Host: testHost, Results: []Result{{Name: "X", Metrics: map[string]float64{"ns/op": 500, "allocs/op": 10, "states/op": 7}}}}
	for _, h := range []*Host{nil, &other} {
		prev := &Snapshot{Host: h, Results: []Result{{Name: "X", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 10, "states/op": 7}}}}
		stampHost(prev)
		if compare(prev, cur, "prev.json", 0.10, gate) {
			t.Errorf("host %v: a 5x ns/op rise across hosts was given a verdict", h)
		}
		cur.Results[0].Metrics["allocs/op"] = 20
		if !compare(prev, cur, "prev.json", 0.10, gate) {
			t.Errorf("host %v: allocs/op regression passed across hosts", h)
		}
		cur.Results[0].Metrics["allocs/op"] = 10
		cur.Results[0].Metrics["states/op"] = 8
		if !compare(prev, cur, "prev.json", 0, map[string]bool{"states/op": true}) {
			t.Errorf("host %v: exact states/op drift passed across hosts", h)
		}
		cur.Results[0].Metrics["states/op"] = 7
	}
	// A snapshot on disk carries its host to every result, including
	// results a per-benchmark baseline takes from it.
	dir := t.TempDir()
	data, err := json.Marshal(Snapshot{Date: "2026-01-01", Host: testHost, Results: []Result{{Name: "X", Metrics: map[string]float64{"ns/op": 100}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_2026-01-01.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	prev, path, err := baseline(dir, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !sameHost(prev.Results[0].Host, testHost) {
		t.Fatalf("baseline result host %+v, want %+v", prev.Results[0].Host, testHost)
	}
	if !compare(prev, cur, path, 0.10, gate) {
		t.Error("a 5x ns/op rise on the same host passed")
	}
}

func TestWarmReport(t *testing.T) {
	pair := func(cold, warm map[string]float64) *Snapshot {
		return &Snapshot{Results: []Result{{Name: "SweepCold", Metrics: cold}, {Name: "SweepWarm", Metrics: warm}}}
	}
	if !warmReport(pair(map[string]float64{"states/op": 100}, map[string]float64{"states/op": 90})) {
		t.Error("warm side with fewer states failed")
	}
	for name, s := range map[string]*Snapshot{
		"equal states":   pair(map[string]float64{"states/op": 100}, map[string]float64{"states/op": 100}),
		"more states":    pair(map[string]float64{"states/op": 100}, map[string]float64{"states/op": 101}),
		"no warm states": pair(map[string]float64{"states/op": 100}, map[string]float64{"ns/op": 1}),
		"no pairs":       {Results: []Result{{Name: "SweepCold", Metrics: map[string]float64{"states/op": 1}}}},
	} {
		if warmReport(s) {
			t.Errorf("%s: passed the warm gate", name)
		}
	}
}

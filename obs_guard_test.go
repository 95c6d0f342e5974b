// Zero-overhead guard: with observability disabled (Options.Obs == nil)
// the planner must run its original allocation-free hot path and produce
// bit-identical headline results. The guard pins the Figure 6 workload —
// the same one BenchmarkFig6ResNet50 snapshots through cmd/benchdiff —
// against the newest committed BENCH_*.json that records it: the valid
// periods must
// match the snapshot to its recorded precision, and allocations per
// iteration must not exceed the snapshot's allocs/op (instrumentation
// that leaked allocations into the disabled path would add thousands,
// one per DP state or cut, far beyond the slack).
package madpipe

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"madpipe/internal/core"
	"madpipe/internal/nets"
	"madpipe/internal/obs"
	"madpipe/internal/pipedream"
)

// benchSnapshot mirrors cmd/benchdiff's Snapshot/Result JSON.
type benchSnapshot struct {
	Results []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"results"`
}

// loadBaseline returns the metrics of benchmark name from the newest
// committed BENCH_*.json snapshot that records it — cmd/benchdiff's
// per-benchmark baseline lookup, so a narrow snapshot (make
// bench-warm's) does not strip the guard of its baseline. It returns nil
// when no snapshot records name.
func loadBaseline(t *testing.T, name string) map[string]float64 {
	t.Helper()
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		data, err := os.ReadFile(matches[i])
		if err != nil {
			t.Fatal(err)
		}
		var s benchSnapshot
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatalf("%s: %v", matches[i], err)
		}
		for _, r := range s.Results {
			if r.Name == name {
				return r.Metrics
			}
		}
	}
	return nil
}

// fig6Workload is BenchmarkFig6ResNet50's loop body, shared so the guard
// measures exactly what the snapshot recorded.
func fig6Workload(t *testing.T, opts core.Options) (mp, pd float64) {
	t.Helper()
	c, err := nets.Build(nets.PaperSpec("resnet50"))
	if err != nil {
		t.Fatal(err)
	}
	c, err = c.Coarsen(24)
	if err != nil {
		t.Fatal(err)
	}
	plat := benchPlat(4, 10, 12)
	plan, err := core.PlanAndSchedule(c, plat, opts, core.ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mp = plan.Period
	res, err := pipedream.Plan(c, plat)
	if err != nil {
		t.Fatal(err)
	}
	if pdPlan, err := core.ScheduleAllocation(res.Alloc, core.ScheduleOptions{}); err == nil {
		pd = pdPlan.Period
	} else {
		pd = math.Inf(1)
	}
	return mp, pd
}

func TestObsZeroOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig6 workload")
	}
	base := loadBaseline(t, "Fig6ResNet50")
	if base == nil {
		t.Skip("no BENCH_*.json snapshot records Fig6ResNet50")
	}

	// Re-run the benchmark through the same harness benchdiff uses, once,
	// on one P with the collector off. A fresh DP table costs a few
	// thousand block allocations, and two things make a lease allocate
	// one in the middle of a run: a collection empties sync.Pool, and a
	// table Put to one P's private slot is invisible to a Get on another
	// P, so where the probe goroutines ran decides whether the pooled
	// table is found. With the collector off and a single P every pooled
	// table is found again, and allocs/op is the steady state's on every
	// run. On one P the default probe fan (Options.Parallel 0 means
	// GOMAXPROCS) is 1, so the guard times the sequential bisection: it
	// plans the same headline as the snapshot's run and allocates less
	// than it, and a leak on the disabled path adds thousands of
	// allocations per op at any fan.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := testing.Benchmark(BenchmarkFig6ResNet50)

	// Headline metrics with obs off must match the committed snapshot to
	// the precision the bench output prints (4 significant digits).
	approx := func(got, want float64) bool {
		return want != 0 && math.Abs(got-want)/math.Abs(want) < 1e-3
	}
	for _, metric := range []string{"madpipe-ms", "pipedream-ms", "ratio"} {
		want, ok := base[metric]
		if !ok {
			continue
		}
		if got := r.Extra[metric]; !approx(got, want) {
			t.Errorf("%s = %.4f, snapshot %.4f: the disabled-obs planner changed its answer", metric, got, want)
		}
	}

	// Allocation budget: the steady state must come in at or below the
	// snapshot. A leak on the disabled path adds thousands of allocations
	// per op (one per DP state or cut-loop entry), so the 5% headroom is
	// two orders of magnitude tighter than the failure it guards against.
	// The exact bit-identity gate at matched N is cmd/benchdiff.
	if want, ok := base["allocs/op"]; ok {
		got := float64(r.AllocsPerOp())
		t.Logf("allocs/op with obs disabled = %.0f at N=%d, snapshot %.0f", got, r.N, want)
		if got > want*1.05 {
			t.Errorf("allocs/op with obs disabled = %.0f, snapshot %.0f: instrumentation leaked into the hot path", got, want)
		}
	}
}

// TestObsEnabledSameHeadline runs the Fig6 workload with a live registry
// and checks the planned periods are bit-identical to the uninstrumented
// run — observability may cost time, never answers.
func TestObsEnabledSameHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig6 workload")
	}
	mpOff, pdOff := fig6Workload(t, core.Options{})
	reg := obs.NewRegistry()
	mpOn, pdOn := fig6Workload(t, core.Options{Obs: reg})
	if mpOn != mpOff || pdOn != pdOff {
		t.Fatalf("observability changed the answer: (%g, %g) vs (%g, %g)", mpOn, pdOn, mpOff, pdOff)
	}
	snap := reg.Snapshot()
	if snap.Counters["dp_runs"] == 0 || snap.Counters["dp_states_evaluated"] == 0 {
		t.Errorf("registry empty after an observed plan: %+v", snap.Counters)
	}
}

// TestObsFrontierCounters extends the guard to the parametric frontier
// solver: attaching a registry must not change a frontier's segments,
// and the frontier_* counters must land in the snapshot and agree with
// the result's own economics.
func TestObsFrontierCounters(t *testing.T) {
	c, err := nets.Build(nets.PaperSpec("resnet50"))
	if err != nil {
		t.Fatal(err)
	}
	c, err = c.Coarsen(16)
	if err != nil {
		t.Fatal(err)
	}
	plat := benchPlat(4, 16, 12)
	var mems []float64
	for m := 3.0; m <= 16; m++ {
		mems = append(mems, m*1e9)
	}
	off, err := core.PlanFrontier(c, plat, mems, core.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	on, err := core.PlanFrontier(c, plat, mems, core.Options{Parallel: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Segments) != len(off.Segments) || on.Probes != off.Probes || on.Replays != off.Replays {
		t.Fatalf("observability changed the frontier: %d/%d/%d segments/probes/replays vs %d/%d/%d",
			len(on.Segments), on.Probes, on.Replays, len(off.Segments), off.Probes, off.Replays)
	}
	for i := range on.Segments {
		a, b := on.Segments[i], off.Segments[i]
		if a.Predicted != b.Predicted || a.Target != b.Target || a.MemHi != b.MemHi || a.MemLo != b.MemLo {
			t.Fatalf("segment %d differs with observability on: %+v vs %+v", i, a, b)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["frontier_breakpoints"]; got != uint64(on.Breakpoints()) {
		t.Errorf("frontier_breakpoints = %d, result has %d", got, on.Breakpoints())
	}
	if got := snap.Counters["frontier_replays"]; got != uint64(on.Replays) {
		t.Errorf("frontier_replays = %d, result has %d", got, on.Replays)
	}
	if got := snap.Counters["frontier_probes_saved"]; got != uint64(on.FrontierSaved) {
		t.Errorf("frontier_probes_saved = %d, result has %d", got, on.FrontierSaved)
	}
}

package expt

import (
	"math"
	"strings"
	"testing"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
)

// testChains returns small synthetic workloads so the sweep stays fast.
func testChains() []*chain.Chain {
	a := chain.ConvLike(10, 1.0, 1.5e9, 8e8)
	b := chain.Uniform(10, 0.05, 0.1, 50e6, 300e6)
	return []*chain.Chain{a, b}
}

func testGrid() Grid {
	return Grid{Workers: []int{2, 4}, MemoryGB: []float64{6, 12}, BandwidthG: []float64{12}}
}

func runSweep(t *testing.T) []Row {
	t.Helper()
	r := &Runner{SimPeriods: 12, MaxChain: 10} // no MILP: keep tests fast
	rows, err := r.Sweep(testChains(), testGrid(), nil)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	return rows
}

func TestSweepShape(t *testing.T) {
	rows := runSweep(t)
	if len(rows) != 2*2*2 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.SeqTime <= 0 {
			t.Errorf("row %v: missing SeqTime", r)
		}
		// Every feasible schedule must have passed simulation.
		for _, o := range []Outcome{r.PipeDream, r.MadPipe, r.MadPipeContig} {
			if o.Feasible() && o.Scheduler == "" {
				t.Errorf("feasible outcome with no scheduler: %+v", o)
			}
		}
		if r.MadPipe.Feasible() && !r.MadPipe.SimOK {
			t.Errorf("MadPipe schedule failed simulation: net=%s P=%d M=%g", r.Net, r.Workers, r.MemGB)
		}
		if r.PipeDream.Feasible() && !r.PipeDream.SimOK {
			t.Errorf("PipeDream schedule failed simulation: net=%s P=%d M=%g", r.Net, r.Workers, r.MemGB)
		}
	}
}

func TestOutcomeInvariants(t *testing.T) {
	rows := runSweep(t)
	for _, r := range rows {
		// Valid schedules can never beat the phase-1 prediction for
		// PipeDream (its prediction is optimistic).
		if r.PipeDream.Feasible() && r.PipeDream.Valid < r.PipeDream.Predicted-1e-9 {
			t.Errorf("PipeDream valid %g < predicted %g", r.PipeDream.Valid, r.PipeDream.Predicted)
		}
		// MadPipe (portfolio) is never worse than its contiguous variant
		// by more than round-off: the portfolio contains it.
		if r.MadPipeContig.Feasible() && r.MadPipe.Feasible() &&
			r.MadPipe.Valid > r.MadPipeContig.Valid*(1+1e-6) {
			t.Errorf("MadPipe %g worse than its contiguous variant %g (net=%s P=%d M=%g)",
				r.MadPipe.Valid, r.MadPipeContig.Valid, r.Net, r.Workers, r.MemGB)
		}
		// Speedup can't exceed the number of workers (period >= U/P).
		if s := Speedup(r, r.MadPipe); s > float64(r.Workers)+1e-6 {
			t.Errorf("speedup %g exceeds worker count %d", s, r.Workers)
		}
	}
}

func TestFig6Table(t *testing.T) {
	rows := runSweep(t)
	out := Fig6Table(rows, rows[0].Net)
	for _, want := range []string{"Figure 6", "PD-solid", "MP-solid", "M(GB)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6Table missing %q:\n%s", want, out)
		}
	}
	// Filtering works: the other net's rows are absent.
	if strings.Contains(out, "uniform10") && rows[0].Net != "uniform10" {
		t.Errorf("Fig6Table leaked rows from other networks")
	}
}

func TestFig7TableAndGeoMean(t *testing.T) {
	rows := runSweep(t)
	out := Fig7Table(rows)
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "convlike10") {
		t.Fatalf("Fig7Table malformed:\n%s", out)
	}
	// GeoMean on a hand-built set.
	mk := func(pd, mp float64) Row {
		return Row{Net: "x", MemGB: 8, PipeDream: Outcome{Predicted: pd, Valid: pd, Scheduler: "s"},
			MadPipe: Outcome{Predicted: mp, Valid: mp, Scheduler: "s"}}
	}
	set := []Row{mk(2, 1), mk(8, 1)} // ratios 2 and 8 -> geomean 4
	g, used, skipped := GeoMeanRatio(set, "x", 8, func(r Row) Outcome { return r.PipeDream })
	if used != 2 || skipped != 0 || math.Abs(g-4) > 1e-9 {
		t.Fatalf("GeoMeanRatio = %g (%d used, %d skipped), want 4", g, used, skipped)
	}
	set = append(set, Row{Net: "x", MemGB: 8, PipeDream: Outcome{Valid: math.Inf(1)},
		MadPipe: Outcome{Valid: 1, Scheduler: "s"}})
	_, used, skipped = GeoMeanRatio(set, "x", 8, func(r Row) Outcome { return r.PipeDream })
	if used != 2 || skipped != 1 {
		t.Fatalf("infeasible row not skipped: used=%d skipped=%d", used, skipped)
	}
}

func TestFig8Table(t *testing.T) {
	rows := runSweep(t)
	out := Fig8Table(rows)
	for _, want := range []string{"Figure 8", "speedup", "PD@6GB", "MP@12GB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig8Table missing %q:\n%s", want, out)
		}
	}
}

func TestAblationTable(t *testing.T) {
	rows := runSweep(t)
	out := AblationTable(rows)
	if !strings.Contains(out, "Ablation") {
		t.Fatalf("AblationTable malformed:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	rows := runSweep(t)
	out := CSV(rows)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("CSV lines = %d, want %d", len(lines), len(rows)+1)
	}
	if !strings.HasPrefix(lines[0], "net,workers") {
		t.Fatalf("CSV header missing: %s", lines[0])
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != strings.Count(lines[0], ",") {
			t.Fatalf("CSV row has %d commas, header %d: %s", n, strings.Count(lines[0], ","), l)
		}
	}
}

func TestGrids(t *testing.T) {
	pg := PaperGrid()
	if len(pg.Workers) != 7 || pg.Workers[0] != 2 || pg.Workers[6] != 8 {
		t.Errorf("PaperGrid workers = %v", pg.Workers)
	}
	if pg.MemoryGB[0] != 3 || pg.MemoryGB[len(pg.MemoryGB)-1] != 16 {
		t.Errorf("PaperGrid memory = %v", pg.MemoryGB)
	}
	if len(pg.BandwidthG) != 2 {
		t.Errorf("PaperGrid bandwidths = %v", pg.BandwidthG)
	}
	qg := QuickGrid()
	if len(qg.Workers)*len(qg.MemoryGB)*len(qg.BandwidthG) >= len(pg.Workers)*len(pg.MemoryGB)*len(pg.BandwidthG) {
		t.Errorf("QuickGrid is not smaller than PaperGrid")
	}
}

func TestRunInvalidChain(t *testing.T) {
	r := DefaultRunner()
	c := chain.Uniform(4, 1, 1, 1, 1)
	if _, err := r.Run(c, platform.Platform{}); err == nil {
		// Run validates through the planners; an invalid platform should
		// surface as infeasible outcomes rather than panic.
		t.Skip("invalid platform tolerated as infeasible")
	}
}

func TestHybridSweepAndTable(t *testing.T) {
	r := &Runner{SimPeriods: 8, MaxChain: 8}
	grid := Grid{Workers: []int{2, 4}, MemoryGB: []float64{8}, BandwidthG: []float64{12}}
	rows, err := r.HybridSweep(testChains()[:1], grid)
	if err != nil {
		t.Fatalf("HybridSweep: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		if row.BestD > 0 && row.BestD*row.BestG != row.Workers {
			t.Errorf("D*G = %d*%d != P=%d", row.BestD, row.BestG, row.Workers)
		}
		if row.BestD > 0 && row.PurePipeline < row.Period-1e-9 {
			t.Errorf("pure pipeline %g beats chosen hybrid %g", row.PurePipeline, row.Period)
		}
	}
	out := HybridTable(rows)
	for _, want := range []string{"Hybrid extension", "best DxG", "pure-pipeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("HybridTable missing %q:\n%s", want, out)
		}
	}
}

func TestOptimalityGapSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search is slow")
	}
	r := &Runner{SimPeriods: 8, MaxChain: 10}
	trials, err := r.OptimalityGap(2, 7, 15*time.Second)
	if err != nil {
		t.Fatalf("OptimalityGap: %v", err)
	}
	if len(trials) != 2 {
		t.Fatalf("trials = %d, want 2", len(trials))
	}
	for _, tr := range trials {
		if tr.Infeasible {
			continue
		}
		if tr.Gap < 1-1e-6 {
			t.Errorf("gap %g < 1: globalopt missed a schedule MadPipe found", tr.Gap)
		}
	}
	out := GapTable(trials)
	if !strings.Contains(out, "Optimality gap") {
		t.Errorf("GapTable malformed:\n%s", out)
	}
}

// TestSweepParallelDeterministic: running the same grid sequentially and
// at several parallelism levels must yield identical rows in identical
// order, with onRow fired once per row in grid order — warm shards and
// dominance hints included (sweeps always lease warm now; row affinity
// keeps that deterministic). Run with -race to exercise the worker pool.
func TestSweepParallelDeterministic(t *testing.T) {
	base := &Runner{SimPeriods: 12, MaxChain: 10, Parallel: 1}
	want, err := base.Sweep(testChains(), testGrid(), nil)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	// The rendered figure tables must be byte-identical too — they are
	// the sweep's headline output.
	wantFig6 := Fig6Table(want, want[0].Net)
	wantFig7 := Fig7Table(want)
	wantCSV := CSV(want)
	for _, par := range []int{0, 2, 4, 8} {
		r := &Runner{SimPeriods: 12, MaxChain: 10, Parallel: par}
		var seen []Row
		rows, err := r.Sweep(testChains(), testGrid(), func(row Row) { seen = append(seen, row) })
		if err != nil {
			t.Fatalf("parallel=%d sweep: %v", par, err)
		}
		if len(rows) != len(want) || len(seen) != len(want) {
			t.Fatalf("parallel=%d: got %d rows, %d callbacks, want %d", par, len(rows), len(seen), len(want))
		}
		for i := range rows {
			if !rowsEqual(rows[i], want[i]) {
				t.Errorf("parallel=%d row %d differs:\n got %+v\nwant %+v", par, i, rows[i], want[i])
			}
			if !rowsEqual(seen[i], rows[i]) {
				t.Errorf("parallel=%d: onRow order broken at %d", par, i)
			}
		}
		if got := Fig6Table(rows, rows[0].Net); got != wantFig6 {
			t.Errorf("parallel=%d: Fig6Table differs:\n got:\n%s\nwant:\n%s", par, got, wantFig6)
		}
		if got := Fig7Table(rows); got != wantFig7 {
			t.Errorf("parallel=%d: Fig7Table differs:\n got:\n%s\nwant:\n%s", par, got, wantFig7)
		}
		if got := CSV(rows); got != wantCSV {
			t.Errorf("parallel=%d: CSV differs:\n got:\n%s\nwant:\n%s", par, got, wantCSV)
		}
	}
}

// TestSweepDominance drives a grid whose low-memory cells are
// infeasible and checks the dominance machinery end to end: floors and
// cell-level death certificates fire (observable through the obs
// counters), skipped cells report the same outcomes a cell-by-cell Run
// produces, and the savings totals are identical at every parallelism
// level.
func TestSweepDominance(t *testing.T) {
	// Memory limits chosen to straddle infeasibility for the test chains
	// at small P: the bottom of each row dies (whole-cell skips) and the
	// 1.5–4 GB band has searches with a mix of memory-infeasible and
	// feasible probes (per-probe floors). The grid lists memories
	// ascending on purpose to check the scheduler reorders them.
	grid := Grid{Workers: []int{2, 4}, MemoryGB: []float64{0.5, 1, 1.5, 2, 3, 4, 6, 12}, BandwidthG: []float64{12}}
	counters := func(par int) (rows []Row, skipped, saved uint64) {
		reg := obs.NewRegistry()
		r := &Runner{SimPeriods: 12, MaxChain: 10, Parallel: par, Obs: reg}
		rows, err := r.Sweep(testChains(), grid, nil)
		if err != nil {
			t.Fatalf("parallel=%d sweep: %v", par, err)
		}
		return rows, reg.Counter("sweep_cells_skipped").Value(), reg.Counter("sweep_probes_saved").Value()
	}
	rows, skipped, saved := counters(1)
	if skipped == 0 {
		t.Errorf("no cells skipped: the grid's infeasible floor should kill dominated cells")
	}
	if saved == 0 {
		t.Errorf("no probes saved: infeasibility floors never fired")
	}
	var outcomeSaved int
	for _, row := range rows {
		outcomeSaved += row.MadPipe.ProbesSaved + row.MadPipeContig.ProbesSaved
	}
	if uint64(outcomeSaved) != saved {
		t.Errorf("sweep_probes_saved=%d, outcomes sum to %d", saved, outcomeSaved)
	}
	for _, par := range []int{2, 8} {
		prows, pskipped, psaved := counters(par)
		if pskipped != skipped || psaved != saved {
			t.Errorf("parallel=%d: skipped/saved = %d/%d, want %d/%d", par, pskipped, pskipped, skipped, saved)
		}
		for i := range prows {
			if !rowsEqual(prows[i], rows[i]) {
				t.Errorf("parallel=%d row %d differs:\n got %+v\nwant %+v", par, i, prows[i], rows[i])
			}
		}
	}
	// Dominance-skipped cells must report exactly what an isolated,
	// hint-free Run reports — modulo the probe-economics fields, which a
	// standalone run cannot save (and never fills on infeasible cells).
	solo := &Runner{SimPeriods: 12, MaxChain: 10, Parallel: 1}
	for _, c := range testChains() {
		for _, row := range rows {
			if row.Net != c.Name() {
				continue
			}
			want, err := solo.Run(c, platform.Platform{
				Workers:   row.Workers,
				Memory:    row.MemGB * platform.GB,
				Bandwidth: row.BandGB * platform.GB,
			})
			if err != nil {
				t.Fatalf("Run(%s, P=%d, M=%g): %v", row.Net, row.Workers, row.MemGB, err)
			}
			got := row
			got.MadPipe.Probes, got.MadPipe.ProbesSaved = want.MadPipe.Probes, want.MadPipe.ProbesSaved
			got.MadPipeContig.Probes, got.MadPipeContig.ProbesSaved = want.MadPipeContig.Probes, want.MadPipeContig.ProbesSaved
			got.FrontierBreakpoints, got.FrontierReplays, got.FrontierProbes = 0, 0, 0
			if !rowsEqual(got, want) {
				t.Errorf("sweep row (net=%s P=%d M=%g) differs from standalone Run:\n got %+v\nwant %+v",
					row.Net, row.Workers, row.MemGB, got, want)
			}
		}
	}
}

// TestOutcomeElapsed: every planned cell reports its wall-clock time,
// for PipeDream and both MadPipe modes, while a dominance-skipped cell
// (no planner run at all) reports zero — so the zero outcomes are
// exactly the sweep_cells_skipped count.
func TestOutcomeElapsed(t *testing.T) {
	reg := obs.NewRegistry()
	r := &Runner{SimPeriods: 12, MaxChain: 10, Parallel: 1, Obs: reg}
	grid := Grid{Workers: []int{2}, MemoryGB: []float64{0.5, 1, 2, 12}, BandwidthG: []float64{12}}
	rows, err := r.Sweep(testChains(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	var zero uint64
	for _, row := range rows {
		if row.PipeDream.Elapsed <= 0 {
			t.Errorf("net=%s M=%g: PipeDream Elapsed = %v", row.Net, row.MemGB, row.PipeDream.Elapsed)
		}
		for _, o := range []Outcome{row.MadPipe, row.MadPipeContig} {
			if o.Elapsed < 0 {
				t.Errorf("net=%s M=%g: negative MadPipe Elapsed %v", row.Net, row.MemGB, o.Elapsed)
			}
			if o.Elapsed == 0 {
				zero++
			}
		}
	}
	skipped := reg.Counter("sweep_cells_skipped").Value()
	if skipped == 0 {
		t.Fatal("no cell was dominance-skipped; the grid no longer covers the skip path")
	}
	if zero != skipped {
		t.Errorf("%d MadPipe outcomes report zero Elapsed, %d cells were skipped", zero, skipped)
	}
}

// rowsEqual compares everything except wall-clock timings and report
// pointers (reports carry timings of their own; counter equality has its
// own tests in internal/core).
func rowsEqual(a, b Row) bool {
	norm := func(r Row) Row {
		r.PipeDream.Elapsed = 0
		r.MadPipe.Elapsed = 0
		r.MadPipeContig.Elapsed = 0
		r.PipeDream.Report = nil
		r.MadPipe.Report = nil
		r.MadPipeContig.Report = nil
		return r
	}
	return norm(a) == norm(b)
}

// TestFrontierSamplingMatchesPerCell is the sweep-level half of the
// parametric-frontier property (the core half lives in
// internal/core/frontier_test.go): a sweep whose rows are pre-solved by
// PlanFrontier and sampled at the grid memories must report the same
// planner outcomes — periods, feasibility, schedulers, simulation
// verdicts — as an isolated, hint-free Run of every cell, at every
// parallelism level. Only the probe-economics fields may differ (the
// whole point of the frontier is to save probes a standalone run
// cannot), so those are normalized out. Run with -race to exercise the
// shard workers.
func TestFrontierSamplingMatchesPerCell(t *testing.T) {
	// A memory ladder dense enough that rows have both plateaus and
	// breakpoints, plus an infeasible floor at the bottom.
	grid := Grid{Workers: []int{2, 4}, MemoryGB: []float64{1, 2, 3, 4, 6, 8, 12, 16}, BandwidthG: []float64{12}}
	for _, par := range []int{1, 4} {
		r := &Runner{SimPeriods: 12, MaxChain: 10, Parallel: par}
		rows, err := r.Sweep(testChains(), grid, nil)
		if err != nil {
			t.Fatalf("parallel=%d sweep: %v", par, err)
		}
		frontierRan := false
		for _, row := range rows {
			if row.FrontierProbes > 0 {
				frontierRan = true
			}
			if row.FrontierReplays > row.FrontierProbes {
				t.Errorf("parallel=%d: row (net=%s P=%d M=%g) replays %d exceed probes %d",
					par, row.Net, row.Workers, row.MemGB, row.FrontierReplays, row.FrontierProbes)
			}
		}
		if !frontierRan {
			t.Fatalf("parallel=%d: no row recorded frontier probes; the pre-solve never ran", par)
		}
		for _, c := range testChains() {
			solo := &Runner{SimPeriods: 12, MaxChain: 10, Parallel: 1}
			for _, row := range rows {
				if row.Net != c.Name() {
					continue
				}
				want, err := solo.Run(c, platform.Platform{
					Workers:   row.Workers,
					Memory:    row.MemGB * platform.GB,
					Bandwidth: row.BandGB * platform.GB,
				})
				if err != nil {
					t.Fatalf("Run(%s, P=%d, M=%g): %v", row.Net, row.Workers, row.MemGB, err)
				}
				got := row
				got.MadPipe.Probes, got.MadPipe.ProbesSaved = want.MadPipe.Probes, want.MadPipe.ProbesSaved
				got.MadPipeContig.Probes, got.MadPipeContig.ProbesSaved = want.MadPipeContig.Probes, want.MadPipeContig.ProbesSaved
				got.FrontierBreakpoints, got.FrontierReplays, got.FrontierProbes = 0, 0, 0
				if !rowsEqual(got, want) {
					t.Errorf("parallel=%d: frontier-sampled row (net=%s P=%d M=%g) differs from standalone Run:\n got %+v\nwant %+v",
						par, row.Net, row.Workers, row.MemGB, got, want)
				}
			}
		}
	}
}

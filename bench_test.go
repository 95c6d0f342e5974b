// Package madpipe's root benchmark harness regenerates the data behind
// every figure of the paper's evaluation (Section 5) and measures the
// cost of each algorithmic component. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig* benchmarks execute a reduced sweep per iteration and report
// the headline metric of the corresponding figure through ReportMetric
// (periods in milliseconds, ratios, speedups); cmd/experiments prints the
// full tables on the paper's grid.
//
// Every benchmark is deterministic: all math/rand generators use fixed
// seeds and the planners contain no randomness, so the metrics recorded
// in BENCH_*.json by cmd/benchdiff are reproducible across runs and
// comparable across commits.
package madpipe

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/core"
	"madpipe/internal/expt"
	"madpipe/internal/ilpsched"
	"madpipe/internal/listsched"
	"madpipe/internal/lp"
	"madpipe/internal/milp"
	"madpipe/internal/nets"
	"madpipe/internal/obs"
	"madpipe/internal/onefoneb"
	"madpipe/internal/partition"
	"madpipe/internal/pipedream"
	"madpipe/internal/platform"
	"madpipe/internal/sim"
)

func benchChain(b *testing.B, name string) *chain.Chain {
	b.Helper()
	c, err := nets.Build(nets.PaperSpec(name))
	if err != nil {
		b.Fatal(err)
	}
	cc, err := c.Coarsen(24)
	if err != nil {
		b.Fatal(err)
	}
	return cc
}

func benchPlat(p int, memGB, bwGB float64) platform.Platform {
	return platform.Platform{Workers: p, Memory: memGB * platform.GB, Bandwidth: bwGB * platform.GB}
}

// BenchmarkFig6ResNet50 regenerates one Figure 6 point per planner:
// ResNet-50, P=4, beta=12 GB/s, M=10 GB. Metrics: valid periods (ms).
func BenchmarkFig6ResNet50(b *testing.B) {
	c := benchChain(b, "resnet50")
	plat := benchPlat(4, 10, 12)
	fig6 := func() (mp, pd float64) {
		plan, err := core.PlanAndSchedule(c, plat, core.Options{}, core.ScheduleOptions{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := pipedream.Plan(c, plat)
		if err != nil {
			b.Fatal(err)
		}
		if pdPlan, err := core.ScheduleAllocation(res.Alloc, core.ScheduleOptions{}); err == nil {
			return plan.Period, pdPlan.Period
		}
		return plan.Period, math.Inf(1)
	}
	fig6() // untimed warm-up: see BenchmarkMadPipeDP
	b.ResetTimer()
	var mp, pd float64
	for i := 0; i < b.N; i++ {
		mp, pd = fig6()
	}
	b.ReportMetric(mp*1e3, "madpipe-ms")
	if !math.IsInf(pd, 1) {
		b.ReportMetric(pd*1e3, "pipedream-ms")
		b.ReportMetric(pd/mp, "ratio")
	}
}

// BenchmarkFig7AllNetworks regenerates the Figure 7 aggregate on a
// reduced grid: the geometric mean over configurations and networks of
// the PipeDream/MadPipe period ratio (>1 means MadPipe is faster).
func BenchmarkFig7AllNetworks(b *testing.B) {
	runner := &expt.Runner{SimPeriods: 8, MaxChain: 20}
	chains := nets.All()
	grid := expt.Grid{Workers: []int{4, 8}, MemoryGB: []float64{8, 16}, BandwidthG: []float64{12}}
	// Untimed warm-up: see BenchmarkMadPipeDP.
	if _, err := runner.Sweep(chains, grid, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := runner.Sweep(chains, grid, nil)
		if err != nil {
			b.Fatal(err)
		}
		var logSum float64
		n := 0
		for _, r := range rows {
			if r.PipeDream.Feasible() && r.MadPipe.Feasible() {
				logSum += math.Log(r.PipeDream.Valid / r.MadPipe.Valid)
				n++
			}
		}
		if n > 0 {
			ratio = math.Exp(logSum / float64(n))
		}
	}
	b.ReportMetric(ratio, "pd/mp-geomean")
}

// fig7Sweep is the wall-time series for the dominance-aware sweep
// scheduler: all four networks over a Fig. 7-shaped grid whose memory
// ladder reaches into the infeasible band, so both per-probe
// infeasibility floors and whole-cell death skips fire. Besides the
// timing, it reports the sweep's total probe count and the dominance
// savings — both exact functions of the grid (benchdiff gates on the
// probe count; time is advisory).
func fig7Sweep(b *testing.B, par int) {
	runner := &expt.Runner{SimPeriods: 8, MaxChain: 16, Parallel: par}
	chains := nets.All()
	grid := expt.Grid{Workers: []int{2, 4, 6, 8}, MemoryGB: []float64{3, 4, 6, 8, 12, 16}, BandwidthG: []float64{12}}
	var probes, saved int
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := runner.Sweep(chains, grid, nil)
		if err != nil {
			b.Fatal(err)
		}
		probes, saved = 0, 0
		var logSum float64
		n := 0
		for _, r := range rows {
			probes += r.MadPipe.Probes + r.MadPipeContig.Probes
			saved += r.MadPipe.ProbesSaved + r.MadPipeContig.ProbesSaved
			if r.PipeDream.Feasible() && r.MadPipe.Feasible() {
				logSum += math.Log(r.PipeDream.Valid / r.MadPipe.Valid)
				n++
			}
		}
		if n > 0 {
			ratio = math.Exp(logSum / float64(n))
		}
	}
	b.ReportMetric(float64(probes), "probes/op")
	b.ReportMetric(float64(saved), "probessaved/op")
	b.ReportMetric(ratio, "pd/mp-geomean")
}

// BenchmarkFig7Sweep is the sequential (one-worker) sweep.
func BenchmarkFig7Sweep(b *testing.B) { fig7Sweep(b, 1) }

// BenchmarkFig7SweepParallel4 runs the same grid on four workers: row
// affinity keeps every reported metric identical to the sequential run,
// only the wall time may differ.
func BenchmarkFig7SweepParallel4(b *testing.B) { fig7Sweep(b, 4) }

// BenchmarkFig7Frontier measures the parametric frontier solver on its
// native workload: a dense T*(M) ladder — ResNet-50 at P ∈ {4, 8} in
// both planning modes, 3–16 GB sampled at 1/64 GB steps. probes/op is
// the total probe count folded across every sample's search, identical
// to what per-cell bisection at the same limits would fold; dpprobes/op
// is how many of those the frontier actually ran through the DP (the
// rest were answered by merged bracket certificates and infeasibility
// floors). Both are exact functions of the input, so benchdiff gates on
// them at a zero threshold; probereduction-x — the per-cell baseline
// cost over the frontier's — is their ratio and the tentpole's headline
// (must stay well above 3). pins/op counts the memory-interval pins the
// DP probes made (DPStats.MemPins, read from the attached registry):
// exact too, and gated the same way.
func BenchmarkFig7Frontier(b *testing.B) {
	c, err := nets.Build(nets.PaperSpec("resnet50"))
	if err != nil {
		b.Fatal(err)
	}
	cc, err := c.Coarsen(16)
	if err != nil {
		b.Fatal(err)
	}
	var mems []float64
	for m := 3 * platform.GB; m <= 16*platform.GB; m += platform.GB / 64 {
		mems = append(mems, m)
	}
	reg := obs.NewRegistry()
	var probes, saved, breaks int
	for i := 0; i < b.N; i++ {
		probes, saved, breaks = 0, 0, 0
		for _, p := range []int{4, 8} {
			for _, special := range []bool{false, true} {
				plat := platform.Platform{Workers: p, Memory: 16 * platform.GB, Bandwidth: 12 * platform.GB}
				opts := core.Options{Parallel: 1, DisableSpecial: special, Cache: core.NewPlannerCache(), Obs: reg}
				fr, err := core.PlanFrontier(cc, plat, mems, opts)
				if err != nil {
					b.Fatal(err)
				}
				probes += fr.Probes
				saved += fr.ProbesSaved
				breaks += fr.Breakpoints()
			}
		}
	}
	b.ReportMetric(float64(probes), "probes/op")
	b.ReportMetric(float64(probes-saved), "dpprobes/op")
	b.ReportMetric(float64(breaks), "breakpoints/op")
	b.ReportMetric(float64(reg.Counter("dp_mem_pins").Value()/uint64(b.N)), "pins/op")
	if probes > saved {
		b.ReportMetric(float64(probes)/float64(probes-saved), "probereduction-x")
	}
}

// BenchmarkFig8Speedup regenerates a Figure 8 point: MadPipe's speedup
// over sequential execution for ResNet-101 at P=8, M=16 GB.
func BenchmarkFig8Speedup(b *testing.B) {
	c := benchChain(b, "resnet101")
	plat := benchPlat(8, 16, 12)
	// Untimed warm-up: see BenchmarkMadPipeDP.
	if _, err := core.PlanAndSchedule(c, plat, core.Options{}, core.ScheduleOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		plan, err := core.PlanAndSchedule(c, plat, core.Options{}, core.ScheduleOptions{})
		if err != nil {
			b.Fatal(err)
		}
		speedup = c.TotalU() / plan.Period
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkAblationSpecialProcessor measures the value of non-contiguous
// allocations: ratio of the best contiguous period to MadPipe's on a
// workload with strong heterogeneity.
func BenchmarkAblationSpecialProcessor(b *testing.B) {
	c := benchChain(b, "densenet121")
	plat := benchPlat(8, 16, 12)
	var ratio float64
	for i := 0; i < b.N; i++ {
		full, err := core.PlanAndSchedule(c, plat, core.Options{}, core.ScheduleOptions{})
		if err != nil {
			b.Fatal(err)
		}
		contig, err := core.PlanAndSchedule(c, plat, core.Options{DisableSpecial: true}, core.ScheduleOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = contig.Period / full.Period
	}
	b.ReportMetric(ratio, "contig/full")
}

// BenchmarkMadPipeDP measures one MadPipe-DP invocation at the paper's
// discretization (Section 5.1 reports seconds to minutes) and reports the
// DP state throughput. A single DP invocation is sequential at every
// Options.Parallel setting.
func BenchmarkMadPipeDP(b *testing.B) {
	c := benchChain(b, "resnet50")
	plat := benchPlat(8, 12, 12)
	that := c.TotalU() / 8
	// One untimed call leaves a table in the pool, so allocs/op measures
	// the steady state, not a fresh table's blocks.
	if _, err := core.DP(c, plat, that, core.Options{Parallel: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var states int64
	for i := 0; i < b.N; i++ {
		res, err := core.DP(c, plat, that, core.Options{Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		states += int64(res.States)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(states)/secs, "DPstates/s")
	}
}

// BenchmarkMadPipeDPObs is BenchmarkMadPipeDP with observability
// attached: it measures the instrumented path's cost (compare ns/op and
// allocs/op against BenchmarkMadPipeDP to price the registry) and
// reports the planner's deterministic counters through ReportMetric.
// states/op and cutskip/op are exact for a fixed input — machine- and
// noise-independent — so cmd/benchdiff can gate on them at a zero
// threshold (-gate states) to catch unintended search-space growth.
func BenchmarkMadPipeDPObs(b *testing.B) {
	c := benchChain(b, "resnet50")
	plat := benchPlat(8, 12, 12)
	that := c.TotalU() / 8
	reg := obs.NewRegistry()
	// Untimed warm-up: see BenchmarkMadPipeDP.
	if _, err := core.DP(c, plat, that, core.Options{Parallel: 1, Obs: reg}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var stats core.DPStats
	for i := 0; i < b.N; i++ {
		res, err := core.DP(c, plat, that, core.Options{Parallel: 1, Obs: reg})
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Stats
	}
	b.ReportMetric(float64(stats.StatesEvaluated), "states/op")
	b.ReportMetric(float64(stats.CutsSkippedMonotone), "cutskip/op")
	b.ReportMetric(float64(stats.CutsEvaluated), "cuts/op")
}

// BenchmarkAlgorithm1 measures the full phase-1 binary search at probe
// fan 1, the paper's bisection (wider fans are covered by
// TestPlanTrajectoriesGolden and BenchmarkGPTRawParallel).
func BenchmarkAlgorithm1(b *testing.B) {
	c := benchChain(b, "inception")
	plat := benchPlat(6, 10, 12)
	// Untimed warm-up: see BenchmarkMadPipeDP.
	if _, err := core.PlanAllocation(c, plat, core.Options{Parallel: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanAllocation(c, plat, core.Options{Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// algorithm1Sweep runs one sweep-shaped workload: three full Algorithm 1
// searches over neighbouring processor counts on the same chain — the
// access pattern of a Fig. 7/8 grid row, in the sweep scheduler's
// size-dominant order (descending P, so the warm table is allocated
// once at its maximal shape and later cells reslice instead of
// regrowing). With warm=true the cells share a PlannerCache (fresh per
// iteration, so b.N does not compound reuse), letting later cells adopt
// the earlier cells' death certificates across P via the p-outermost
// table layout; cold runs plan each cell from scratch. states/op counts
// fresh DP evaluations and is deterministic: the warm/cold gap is the
// reuse layer's measured effect, and cmd/benchdiff -warm fails unless
// the Warm side evaluates strictly fewer states than the Cold side (a
// change that silently disables reuse closes the gap).
func algorithm1Sweep(b *testing.B, warm bool) {
	c := benchChain(b, "inception")
	reg := obs.NewRegistry()
	sweep := func() (states uint64) {
		opts := core.Options{Parallel: 1, Obs: reg}
		if warm {
			opts.Cache = core.NewPlannerCache()
		}
		for _, p := range []int{6, 5, 4} {
			res, err := core.PlanAllocation(c, benchPlat(p, 10, 12), opts)
			if err != nil {
				b.Fatal(err)
			}
			for j := range res.Evals {
				states += res.Evals[j].Stats.StatesEvaluated
			}
		}
		if warm {
			// Drain the shard back to the shared pool, as Sweep does when
			// a worker finishes — without this every iteration strands its
			// tables in a dead cache and the next one reallocates them,
			// which measures a leak, not the reuse layer.
			opts.Cache.Release(reg)
		}
		return states
	}
	sweep() // untimed warm-up: see BenchmarkMadPipeDP
	b.ResetTimer()
	var states uint64
	for i := 0; i < b.N; i++ {
		states = sweep()
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkAlgorithm1SweepCold is the reuse A/B baseline: every cell
// planned from scratch.
func BenchmarkAlgorithm1SweepCold(b *testing.B) { algorithm1Sweep(b, false) }

// BenchmarkAlgorithm1SweepWarm is the same workload with a shared
// PlannerCache; compare against BenchmarkAlgorithm1SweepCold (or run
// `make bench-warm`) for the cross-cell reuse effect.
func BenchmarkAlgorithm1SweepWarm(b *testing.B) { algorithm1Sweep(b, true) }

// BenchmarkGPTCoarsen measures the transformer-era planning path: a
// GPT-2-style chain profiled at op granularity (2048 decoder blocks,
// 2050 layers) planned through exact run coarsening (group 64) on the
// blocked DP table. ns/op and B/op price the whole pass — coarsening,
// the phase-1 search on the coarse chain, un-coarsening the cuts —
// while states/op, coarselayers/op and rawlayers/op are exact functions
// of the input (fixed chain, fixed discretization, sequential search),
// so cmd/benchdiff gates on them at a zero threshold: any drift is a
// coarsening- or search-behavior change, not noise.
func BenchmarkGPTCoarsen(b *testing.B) {
	ts, ok := nets.TransformerPreset("gpt2")
	if !ok {
		b.Fatal("gpt2 preset missing")
	}
	ts.Blocks, ts.Granularity = 2048, 1
	c, err := nets.BuildTransformer(ts)
	if err != nil {
		b.Fatal(err)
	}
	cc, err := c.CoarsenRuns(0, 64)
	if err != nil {
		b.Fatal(err)
	}
	plat := benchPlat(8, 300, 25)
	reg := obs.NewRegistry()
	opts := core.Options{
		Parallel:     1,
		Disc:         core.Discretization{TP: 21, MP: 5, V: 21},
		CoarsenGroup: 64,
		Obs:          reg,
	}
	// Untimed warm-up: see BenchmarkMadPipeDP.
	if _, err := core.PlanAllocation(c, plat, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var states uint64
	for i := 0; i < b.N; i++ {
		res, err := core.PlanAllocation(c, plat, opts)
		if err != nil {
			b.Fatal(err)
		}
		states = 0
		for j := range res.Evals {
			states += res.Evals[j].Stats.StatesEvaluated
		}
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(cc.Chain.Len()), "coarselayers/op")
	b.ReportMetric(float64(c.Len()), "rawlayers/op")
}

// BenchmarkGPTRawParallel measures the raw (uncoarsened) transformer
// planning path the serving layer's LargeParallel default routes long
// requests through: GPT-2 profiled at 8-op granularity (2050 layers) on
// the paper's special-mode grid (a 36M-state virtual table), planned
// with a 4-way probe fan. Iterations is capped at 2 so the one-shot
// verify gate pays for a single concurrent probe round. states/op
// (summed over probes) and rawlayers/op are exact functions of the
// input — cmd/benchdiff gates them at a zero threshold: a states drift
// is a search-behavior change. blocksalloc/op (the largest number of
// blocks one probe wrote) is a function of the input too, but stays
// advisory like ns/op; the resident-over-virtual economics are gated by
// TestTransformerLongChainPlan.
func BenchmarkGPTRawParallel(b *testing.B) {
	ts, ok := nets.TransformerPreset("gpt2")
	if !ok {
		b.Fatal("gpt2 preset missing")
	}
	ts.Blocks, ts.Granularity = 256, 8
	c, err := nets.BuildTransformer(ts)
	if err != nil {
		b.Fatal(err)
	}
	plat := benchPlat(8, 2000, 300)
	opts := core.Options{
		Parallel:   4,
		Iterations: 2,
		Disc:       core.Discretization{TP: 21, MP: 5, V: 21},
	}
	b.ResetTimer()
	var states, blocks uint64
	for i := 0; i < b.N; i++ {
		res, err := core.PlanAllocation(c, plat, opts)
		if err != nil {
			b.Fatal(err)
		}
		states, blocks = 0, 0
		for j := range res.Evals {
			states += uint64(res.Evals[j].States)
			if br := res.Evals[j].Stats.TableBlocksResident; br > blocks {
				blocks = br
			}
		}
		if blocks == 0 {
			b.Fatal("no probe ran on blocked storage")
		}
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(blocks), "blocksalloc/op")
	b.ReportMetric(float64(c.Len()), "rawlayers/op")
}

// BenchmarkGPTRawProbe is one lower-bound probe on the shape every
// serve_gpt2_raw plan has: GPT-2 at 8-op granularity with 128 blocks
// (1026 layers, past the column cache's colMaxL), P = 16, the 21×5×21
// grid, 1800 GB and 300 GB/s, at probe fan 1 with observability on.
// states/op and cuts/op are exact work counters, and ns/state and
// ns/cut the probe's per-unit costs. floorskip/op counts the children
// the cut loop skipped on their work-conservation floor (exact too).
func BenchmarkGPTRawProbe(b *testing.B) {
	ts, ok := nets.TransformerPreset("gpt2")
	if !ok {
		b.Fatal("gpt2 preset missing")
	}
	ts.Blocks, ts.Granularity = 128, 8
	c, err := nets.BuildTransformer(ts)
	if err != nil {
		b.Fatal(err)
	}
	plat := benchPlat(16, 1800, 300)
	opts := core.Options{
		Parallel:   1,
		Iterations: 1,
		Disc:       core.Discretization{TP: 21, MP: 5, V: 21},
		Obs:        obs.NewRegistry(),
	}
	// Untimed warm-up: see BenchmarkMadPipeDP.
	if _, err := core.PlanAllocation(c, plat, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var st core.DPStats
	for i := 0; i < b.N; i++ {
		res, err := core.PlanAllocation(c, plat, opts)
		if err != nil {
			b.Fatal(err)
		}
		st = res.Evals[0].Stats
	}
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(st.StatesEvaluated), "states/op")
	b.ReportMetric(float64(st.CutsEvaluated), "cuts/op")
	b.ReportMetric(float64(st.CutsSkippedFloor), "floorskip/op")
	b.ReportMetric(perOp/float64(st.StatesEvaluated), "ns/state")
	b.ReportMetric(perOp/float64(st.CutsEvaluated), "ns/cut")
}

// BenchmarkPipeDreamPlan measures the baseline partitioner.
func BenchmarkPipeDreamPlan(b *testing.B) {
	c := benchChain(b, "resnet101")
	plat := benchPlat(8, 12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipedream.Plan(c, plat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneFOneB measures the optimal contiguous scheduler including
// its minimal-period search.
func BenchmarkOneFOneB(b *testing.B) {
	c := benchChain(b, "resnet50")
	plat := benchPlat(8, 16, 12)
	res, err := pipedream.Plan(c, plat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := onefoneb.MinFeasiblePeriod(res.Alloc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListScheduler measures the heuristic periodic scheduler on a
// non-contiguous allocation.
func BenchmarkListScheduler(b *testing.B) {
	a := nonContigAlloc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := listsched.MinFeasiblePeriod(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILPSchedule measures one exact MILP solve at a feasible
// period on a non-contiguous allocation (paper: 1-minute limit, usually
// optimal much earlier).
func BenchmarkILPSchedule(b *testing.B) {
	a := nonContigAlloc(b)
	T, _, err := listsched.MinFeasiblePeriod(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, status := ilpsched.SolveAtPeriod(a, T*1.1, milp.Options{TimeLimit: 5 * time.Second})
		if status != milp.Optimal && status != milp.Feasible {
			b.Fatalf("status %v", status)
		}
	}
}

func nonContigAlloc(b *testing.B) *partition.Allocation {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	c := chain.Random(rng, 7, chain.DefaultRandomOptions())
	a := &partition.Allocation{
		Chain: c,
		Plat:  benchPlat(3, 1000, 12),
		Spans: []chain.Span{{From: 1, To: 1}, {From: 2, To: 3}, {From: 4, To: 5}, {From: 6, To: 7}},
		Procs: []int{2, 0, 2, 1},
	}
	if err := a.Validate(); err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkSimulator measures discrete-event execution of a ResNet-50
// schedule over 64 periods.
func BenchmarkSimulator(b *testing.B) {
	c := benchChain(b, "resnet50")
	plat := benchPlat(4, 16, 12)
	plan, err := core.PlanAndSchedule(c, plat, core.Options{}, core.ScheduleOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(plan.Pattern, 64)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
	}
}

// BenchmarkLPSolve measures the simplex core on a mid-size dense LP.
func BenchmarkLPSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := lp.New()
	const n, m = 60, 80
	for j := 0; j < n; j++ {
		p.AddVar("x", rng.Float64()-0.3)
	}
	for i := 0; i < m; i++ {
		row := map[int]float64{}
		for j := 0; j < n; j++ {
			row[j] = rng.Float64()
		}
		p.AddRow(row, lp.LE, 5+rng.Float64()*10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := p.Solve(); s.Status != lp.Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}

// BenchmarkNetProfiles measures building the analytical profiles.
func BenchmarkNetProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = nets.All()
	}
}

// BenchmarkAblationWeightPolicy compares the paper's PipeDream-2BW
// weight discipline (3W) against original PipeDream's per-batch weight
// stashing on a deep pipeline — the Section 2 motivation for 2BW.
func BenchmarkAblationWeightPolicy(b *testing.B) {
	c := chain.Uniform(16, 0.02, 0.04, 5e8, 2e6)
	plat := benchPlat(8, 4, 12)
	var ratio float64
	for i := 0; i < b.N; i++ {
		twoBW, err := core.PlanAndSchedule(c, plat, core.Options{}, core.ScheduleOptions{})
		if err != nil {
			b.Fatal(err)
		}
		stash, err := core.PlanAndSchedule(c, plat, core.Options{Weights: chain.StashedWeights()}, core.ScheduleOptions{})
		if err != nil {
			ratio = math.Inf(1)
			continue
		}
		ratio = stash.Period / twoBW.Period
	}
	b.ReportMetric(ratio, "stash/2bw")
}

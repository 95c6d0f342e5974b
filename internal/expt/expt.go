// Package expt is the experiment harness reproducing the evaluation of
// the MadPipe paper (Section 5): it sweeps the four profiled networks
// over processor counts, memory limits and bandwidths, runs PipeDream
// (with the 1F1B* repair the paper applies) and MadPipe (both phases,
// with the contiguous ablation), verifies every emitted schedule in the
// discrete-event simulator, and renders the series behind Figures 6, 7
// and 8 as tables and CSV.
package expt

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/core"
	"madpipe/internal/ilpsched"
	"madpipe/internal/obs"
	"madpipe/internal/pipedream"
	"madpipe/internal/platform"
	"madpipe/internal/sim"
)

// Grid defines the sweep of Section 5.1: GPUs from 2 to 8, memory from
// 3 GB to 16 GB, bandwidths 12 and 24 GB/s.
type Grid struct {
	Workers    []int
	MemoryGB   []float64
	BandwidthG []float64 // GB/s
}

// PaperGrid returns the paper's sweep.
func PaperGrid() Grid {
	return Grid{
		Workers:    []int{2, 3, 4, 5, 6, 7, 8},
		MemoryGB:   []float64{3, 4, 5, 6, 7, 8, 10, 12, 14, 16},
		BandwidthG: []float64{12, 24},
	}
}

// QuickGrid is a reduced sweep for benchmarks and smoke tests.
func QuickGrid() Grid {
	return Grid{
		Workers:    []int{2, 4, 8},
		MemoryGB:   []float64{4, 8, 16},
		BandwidthG: []float64{12},
	}
}

// Outcome is one planner's result on one configuration.
type Outcome struct {
	// Predicted is the planner's phase-1 period estimate (the dashed
	// lines of Figure 6); +Inf when the planner found nothing.
	Predicted float64
	// Valid is the period of the validated schedule (solid lines); +Inf
	// when no schedule fits memory.
	Valid float64
	// Scheduler names the phase-2 algorithm behind Valid.
	Scheduler string
	// SimOK records that the discrete-event simulator executed the
	// schedule without violations.
	SimOK bool
	// Elapsed is the planning wall-clock time.
	Elapsed time.Duration
	// Probes is the number of bisection probes phase 1 folded, and
	// ProbesSaved how many of those were answered by a sweep hint's
	// infeasibility floor without running the DP (see core.Hint). Both
	// are deterministic for a fixed grid and zero when phase 1 found no
	// allocation or the cell was skipped by a cell-level death
	// certificate.
	Probes, ProbesSaved int
	// Report is the planner's structured run report, populated for the
	// MadPipe variants when the Runner has an observability registry
	// attached; nil otherwise (a pointer so Rows stay comparable and the
	// sweep's default path allocates nothing extra).
	Report *core.PlanReport
}

// Feasible reports whether a valid schedule exists.
func (o Outcome) Feasible() bool { return !math.IsInf(o.Valid, 1) && o.Valid > 0 }

// Row is the full result of one configuration.
type Row struct {
	Net     string
	Workers int
	MemGB   float64
	BandGB  float64
	SeqTime float64 // U(1,L): sequential time per mini-batch
	PipeDream, MadPipe,
	MadPipeContig Outcome
	// FrontierBreakpoints, FrontierReplays and FrontierProbes are the
	// parametric-frontier economics of the sweep row this configuration
	// belongs to (one row = one chain, worker count and bandwidth swept
	// over the memory axis), summed over both planner modes: how many
	// T*(M) plateaus the row's memory ladder resolved into, how many DP
	// probes had to re-run after the seed sample, and how many probes the
	// row's searches folded in total. Every cell of a row carries the same
	// values; all zero for standalone Run calls and for sweeps that opt
	// into planner-internal parallelism (see Runner.rowFrontier).
	FrontierBreakpoints, FrontierReplays, FrontierProbes int
}

// Runner executes configurations with shared settings.
type Runner struct {
	// Opts configures MadPipe's phase 1. Opts.Parallel == 0 is pinned to
	// 1 (the sequential reference solver) rather than auto, so sweep
	// tables do not depend on the host's core count; set it explicitly to
	// parallelize inside a single configuration.
	Opts core.Options
	// ILPBudget is the per-allocation budget for the exact scheduler in
	// phase 2; zero disables the MILP and uses the list scheduler alone.
	ILPBudget time.Duration
	// SimPeriods is the verification horizon (0 = 24 periods).
	SimPeriods int
	// MaxChain coarsens profiles before planning (0 = 24 nodes).
	MaxChain int
	// Parallel bounds the worker goroutines used by Sweep and
	// HybridSweep: 0 means GOMAXPROCS, 1 forces sequential execution.
	// Every configuration is independent (the planners share nothing but
	// immutable chains — see the concurrency notes in internal/core), and
	// results are collected and reported in grid order, so the output is
	// identical at any parallelism level.
	Parallel int
	// Obs attaches an observability registry shared by every
	// configuration the runner executes: planner counters and phase
	// timers accumulate into it, Sweep publishes live progress
	// (expt_rows_done counter, expt_rows_total gauge), and MadPipe
	// outcomes carry a structured PlanReport. nil disables all of it;
	// the registry is safe for the concurrent sweep workers.
	Obs *obs.Registry

	// Per-chain shared planner state: the coarsened chain (every grid
	// cell re-plans the same coarsening, so it is computed once) and a
	// core.PlannerCache carrying the result memo and warm DP tables for
	// standalone Run calls. Sweep does not use this cache for tables —
	// it shards a private PlannerCache per worker (see Sweep) so warm
	// leases compose with Parallel while staying deterministic. Keyed by
	// the original chain's identity; lazily initialized, guarded by
	// sharedMu.
	sharedMu sync.Mutex
	shared   map[*chain.Chain]*chainShared
}

// chainShared is the planner state every sweep cell of one chain reuses.
type chainShared struct {
	maxChain int
	cc       *chain.Chain
	cache    *core.PlannerCache
}

// sharedFor returns (building on first use) the shared planner state
// for c. The cache itself carries no warm/cold mode — warmth is a
// per-lease property (core.Options.ColdTables), so overlapping callers
// with different Parallel settings never flip each other's leases. Run
// decides per call: warm table leases for a sequential runner, cold for
// a parallel one (concurrent warm leases on one cache would make
// probe-timeline stats depend on which cell warmed a table first, and
// the harness promises output identical at any parallelism level). The
// result memo is always on — memo hits are deterministic at any
// concurrency.
func (r *Runner) sharedFor(c *chain.Chain) (*chainShared, error) {
	r.sharedMu.Lock()
	defer r.sharedMu.Unlock()
	if s, ok := r.shared[c]; ok && s.maxChain == r.maxChain() {
		return s, nil
	}
	cc, err := c.Coarsen(r.maxChain())
	if err != nil {
		return nil, err
	}
	s := &chainShared{maxChain: r.maxChain(), cc: cc, cache: core.NewPlannerCache()}
	if r.shared == nil {
		r.shared = make(map[*chain.Chain]*chainShared)
	}
	r.shared[c] = s
	return s, nil
}

// DefaultRunner returns the settings used by cmd/experiments: paper
// discretization, a short MILP budget per allocation, 24-period
// verification.
func DefaultRunner() *Runner {
	return &Runner{ILPBudget: 500 * time.Millisecond, SimPeriods: 24, MaxChain: 24}
}

func (r *Runner) maxChain() int {
	if r.MaxChain <= 0 {
		return 24
	}
	return r.MaxChain
}

func (r *Runner) schedOpts() core.ScheduleOptions {
	if r.ILPBudget <= 0 {
		return core.ScheduleOptions{}
	}
	return core.ScheduleOptions{MILP: ilpsched.New(ilpsched.Options{Budget: r.ILPBudget, Probes: 3})}
}

// Run evaluates all planners on one configuration. A parallel runner
// leases tables cold from the shared per-chain cache (warm leases under
// concurrency would make per-probe stats scheduling-dependent); Sweep
// gets warm leases at any parallelism via per-worker cache shards.
func (r *Runner) Run(c *chain.Chain, plat platform.Platform) (Row, error) {
	sh, err := r.sharedFor(c)
	if err != nil {
		return Row{}, err
	}
	return r.runCell(c.Name(), sh.cc, sh.cache, nil, r.workerCount() > 1, plat), nil
}

// runCell evaluates all planners on one prepared (coarsened) cell.
func (r *Runner) runCell(net string, cc *chain.Chain, cache *core.PlannerCache, hint *core.Hint, cold bool, plat platform.Platform) Row {
	row := Row{
		Net:     net,
		Workers: plat.Workers,
		MemGB:   plat.Memory / platform.GB,
		BandGB:  plat.Bandwidth / platform.GB,
		SeqTime: cc.TotalU(),
	}
	row.PipeDream = r.runPipeDream(cc, plat)
	row.MadPipe = r.runMadPipe(cc, cache, hint, cold, plat, false)
	row.MadPipeContig = r.runMadPipe(cc, cache, hint, cold, plat, true)
	return row
}

// runPipeDream plans and schedules one cell with the PipeDream baseline.
// The result is named so the deferred Elapsed store reaches the caller.
func (r *Runner) runPipeDream(c *chain.Chain, plat platform.Platform) (out Outcome) {
	start := time.Now()
	out = Outcome{Predicted: math.Inf(1), Valid: math.Inf(1)}
	defer func() { out.Elapsed = time.Since(start) }()
	res, err := pipedream.Plan(c, plat)
	if err != nil {
		return out
	}
	out.Predicted = res.PredictedPeriod
	// The paper repairs PipeDream's partitioning with 1F1B* to obtain a
	// valid schedule (Section 5.1); ScheduleAllocation does exactly that
	// for contiguous allocations.
	plan, err := core.ScheduleAllocation(res.Alloc, core.ScheduleOptions{})
	if err != nil {
		return out
	}
	out.Valid = plan.Period
	out.Scheduler = plan.Scheduler
	out.SimOK = r.verify(plan)
	return out
}

// runMadPipe plans and schedules one cell with MadPipe. Like
// runPipeDream it names its result for the deferred Elapsed store; a
// dominance-skipped cell returns before the timer starts and reports 0.
func (r *Runner) runMadPipe(c *chain.Chain, cache *core.PlannerCache, hint *core.Hint, cold bool, plat platform.Platform, contig bool) (out Outcome) {
	if hint.Dead(contig, plat.Memory) {
		// A sweep neighbor at a memory limit >= plat.Memory already ran
		// this exact search to full infeasibility; the search here would
		// replay it probe for probe and fail identically (see core.Hint),
		// and PlanAndSchedule fails outright when its primary phase-1
		// search does, so the whole cell is dominated-infeasible. The
		// outcome matches a cold run's bit for bit: Probes and Report are
		// only filled on phase-1 success.
		r.Obs.Counter("sweep_cells_skipped").Inc()
		return Outcome{Predicted: math.Inf(1), Valid: math.Inf(1)}
	}
	start := time.Now()
	out = Outcome{Predicted: math.Inf(1), Valid: math.Inf(1)}
	defer func() { out.Elapsed = time.Since(start) }()
	opts := r.Opts
	opts.DisableSpecial = contig
	if opts.Parallel == 0 {
		// Sweeps parallelize across configurations, so the planner inside
		// each configuration runs its sequential reference path unless the
		// caller opts in explicitly. Auto here would resolve to the host's
		// core count, and Algorithm 1's probe schedule depends on the probe
		// fan (see core.Options.Parallel) — fan 1 is the only choice that
		// keeps sweep tables machine-independent.
		opts.Parallel = 1
	}
	opts.Obs = r.Obs
	opts.Cache = cache
	opts.ColdTables = cold
	opts.Hint = hint
	if p1, err := core.PlanAllocation(c, plat, opts); err == nil {
		out.Predicted = p1.PredictedPeriod
		out.Probes = p1.Hint.Probes
		out.ProbesSaved = p1.Hint.ProbesSaved
		if out.ProbesSaved > 0 {
			r.Obs.Counter("sweep_probes_saved").Add(uint64(out.ProbesSaved))
		}
		if r.Obs != nil {
			out.Report = core.NewPlanReport(c, plat, opts, p1)
		}
	}
	plan, err := core.PlanAndSchedule(c, plat, opts, r.schedOpts())
	if err != nil {
		return out
	}
	out.Valid = plan.Period
	out.Scheduler = plan.Scheduler
	out.SimOK = r.verify(plan)
	if out.Report != nil {
		out.Report.AttachSchedule(plan)
	}
	return out
}

func (r *Runner) verify(plan *core.Plan) bool {
	periods := r.SimPeriods
	if periods <= 0 {
		periods = 24
	}
	res, err := sim.Run(plan.Pattern, periods)
	if err != nil || len(res.Violations) > 0 {
		return false
	}
	want := 1 / plan.Period
	return math.Abs(res.Throughput-want) <= 0.25*want
}

// Sweep runs a grid over the given chains with dominance-aware
// scheduling. Cells are grouped into rows — one row per (chain, P,
// bandwidth), the cells of one row differing only in the memory limit —
// and every row is processed whole, on one worker, with its cells
// ordered by DESCENDING memory. That order plus a per-row core.Hint
// turns the grid's dominance structure into planner work savings: a
// probe the full DP proved infeasible at memory M is folded for free at
// any M' <= M (same probe trajectory, no DP run), and a cell whose whole
// search failed kills every smaller-memory cell in the row outright.
//
// Row affinity is also what makes warm sharing parallel-safe: each
// worker owns a private PlannerCache shard, so warm tables, value
// certificates and hints never cross goroutines. Rows are assigned to
// workers statically (round-robin), so results, per-cell probe counts
// and the sweep_* obs counters are bit-identical at any Parallel
// setting; per-shard warm-hit gauges are deterministic for a fixed
// worker count. Returned rows are in grid order regardless of
// parallelism; onRow, when non-nil, is likewise invoked in grid order
// (from the worker that completes the frontier row, serialized).
func (r *Runner) Sweep(chains []*chain.Chain, g Grid, onRow func(Row)) ([]Row, error) {
	type cell struct {
		net  string
		cc   *chain.Chain
		plat platform.Platform
	}
	var cells []cell
	for _, c := range chains {
		// Coarsen up front so the workers cannot fail mid-sweep.
		sh, err := r.sharedFor(c)
		if err != nil {
			return nil, fmt.Errorf("expt: %s: %w", c.Name(), err)
		}
		for _, p := range g.Workers {
			for _, bw := range g.BandwidthG {
				for _, m := range g.MemoryGB {
					cells = append(cells, cell{c.Name(), sh.cc, platform.Platform{
						Workers:   p,
						Memory:    m * platform.GB,
						Bandwidth: bw * platform.GB,
					}})
				}
			}
		}
	}
	rows := make([]Row, len(cells))
	if len(cells) == 0 {
		return rows, nil
	}
	// morder visits one row's cells in descending-memory order (stable on
	// ties), the order in which dominance facts flow: floors and death
	// certificates recorded at a larger limit cover every smaller one.
	nM := len(g.MemoryGB)
	morder := make([]int, nM)
	for i := range morder {
		morder[i] = i
	}
	sort.SliceStable(morder, func(a, b int) bool { return g.MemoryGB[morder[a]] > g.MemoryGB[morder[b]] })
	rowCount := len(cells) / nM
	w := r.workerCount()
	if w > rowCount {
		w = rowCount
	}

	// Progress handles are nil-safe no-ops without a registry; workers
	// bump the counter as configurations finish, so a scrape mid-sweep
	// shows live progress. The emission gate releases onRow callbacks in
	// grid order as the frontier row completes.
	r.Obs.Gauge("expt_rows_total").Observe(uint64(len(cells)))
	rowsDone := r.Obs.Counter("expt_rows_done")
	var (
		mu   sync.Mutex
		done = make([]bool, len(cells))
		next int
	)
	finish := func(i int) {
		rowsDone.Inc()
		mu.Lock()
		done[i] = true
		for next < len(cells) && done[next] {
			if onRow != nil {
				onRow(rows[next])
			}
			next++
		}
		mu.Unlock()
	}
	shard := func(k int) {
		cache := core.NewPlannerCache()
		// Size-dominant row order: run this shard's rows in descending
		// worker count, so the first lease on every table key sizes the
		// warm table's block directory at its maximal shape and each
		// later lease reslices it. The packed state index keeps p
		// outermost precisely so smaller-P rows address the same prefix
		// (certificates included). Execution order cannot change results
		// (the warm-vs-cold equivalence tests pin this); grid-order
		// emission is the done-gate's job.
		mine := make([]int, 0, (rowCount-k+w-1)/w)
		for rowIdx := k; rowIdx < rowCount; rowIdx += w {
			mine = append(mine, rowIdx)
		}
		sort.SliceStable(mine, func(a, b int) bool {
			return cells[mine[a]*nM].plat.Workers > cells[mine[b]*nM].plat.Workers
		})
		for _, rowIdx := range mine {
			hint := core.NewHint()
			// Parametric frontier pre-solve: one PlanFrontier walk per
			// planner mode over the row's memory ladder. Every sample's
			// phase-1 result is memoized in this shard's cache under the
			// exact per-cell planner key, and whole-search failures land in
			// the row hint as death certificates — so the cell loop below is
			// unchanged but its planners replay from the memo (or skip dead
			// cells) instead of bisecting per cell.
			mems := make([]float64, 0, nM)
			for _, mi := range morder {
				mems = append(mems, cells[rowIdx*nM+mi].plat.Memory)
			}
			breaks, replays, probes := r.rowFrontier(cells[rowIdx*nM].cc, cache, hint, cells[rowIdx*nM].plat, mems)
			for _, mi := range morder {
				i := rowIdx*nM + mi
				rows[i] = r.runCell(cells[i].net, cells[i].cc, cache, hint, false, cells[i].plat)
				rows[i].FrontierBreakpoints = breaks
				rows[i].FrontierReplays = replays
				rows[i].FrontierProbes = probes
				finish(i)
			}
		}
		warm, cold := cache.LeaseStats()
		r.Obs.Counter("sweep_warm_leases").Add(warm)
		r.Obs.Counter("sweep_cold_leases").Add(cold)
		r.Obs.Gauge(fmt.Sprintf("sweep_shard%d_warm_leases", k)).Observe(warm)
		r.Obs.Gauge(fmt.Sprintf("sweep_shard%d_cold_leases", k)).Observe(cold)
		cache.Release(r.Obs)
	}
	if w <= 1 {
		shard(0)
		return rows, nil
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			shard(k)
		}(k)
	}
	wg.Wait()
	return rows, nil
}

// rowFrontier solves one sweep row's T*(M) frontier in both planner
// modes, memoizing each sample's phase-1 result in cache and recording
// dominance facts in hint. The options mirror runMadPipe's exactly —
// same discretization, iterations, weights, registry, cache and hint,
// with the probe fan pinned to 1 — so the memo keys the frontier writes
// are the keys the cell loop reads. Returns the row's breakpoint,
// replay and probe totals summed over both modes.
//
// A runner that opts into planner-internal parallelism (Opts.Parallel >
// 1) skips the pre-solve: PlanFrontier plans at probe fan 1, and a hint
// binds to one probe fan — the cells then plan per-cell exactly as
// before, sharing only the hint's dominance floors.
func (r *Runner) rowFrontier(cc *chain.Chain, cache *core.PlannerCache, hint *core.Hint, plat platform.Platform, mems []float64) (breaks, replays, probes int) {
	if r.Opts.Parallel > 1 {
		return 0, 0, 0
	}
	for _, contig := range []bool{false, true} {
		opts := r.Opts
		opts.DisableSpecial = contig
		opts.Parallel = 1
		opts.Obs = r.Obs
		opts.Cache = cache
		opts.Hint = hint
		fr, err := core.PlanFrontier(cc, plat, mems, opts)
		if err != nil {
			// Nothing was lost: the cell loop still plans every cell, just
			// without shared DP work for this mode.
			continue
		}
		breaks += fr.Breakpoints()
		replays += fr.Replays
		probes += fr.Probes
	}
	return breaks, replays, probes
}

func (r *Runner) workerCount() int {
	if r.Parallel > 0 {
		return r.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runJobs executes run(0..n-1) on the runner's bounded worker pool and
// calls emit(i) exactly once per job, in index order, as soon as every
// job up to i has completed.
func (r *Runner) runJobs(n int, run func(int), emit func(int)) {
	w := r.workerCount()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			run(i)
			emit(i)
		}
		return
	}
	var (
		mu   sync.Mutex
		done = make([]bool, n)
		next int
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
				mu.Lock()
				done[i] = true
				for next < n && done[next] {
					emit(next)
					next++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"madpipe/internal/chain"
	"madpipe/internal/nets"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
)

// comparePhaseOne asserts the planner outputs that define a Plan —
// probe schedule, periods, allocation (which IS the reconstruction:
// spans and processor assignment come from the DP's recorded decisions)
// — are bit-identical between two results.
func comparePhaseOne(t *testing.T, label string, got, want *PhaseOneResult) {
	t.Helper()
	if got.PredictedPeriod != want.PredictedPeriod || got.TargetPeriod != want.TargetPeriod {
		t.Fatalf("%s: (predicted %g, target %g) != (%g, %g)",
			label, got.PredictedPeriod, got.TargetPeriod, want.PredictedPeriod, want.TargetPeriod)
	}
	if len(got.Evals) != len(want.Evals) {
		t.Fatalf("%s: %d probes != %d", label, len(got.Evals), len(want.Evals))
	}
	for i := range got.Evals {
		g, w := got.Evals[i], want.Evals[i]
		if g.That != w.That || g.Raw != w.Raw || g.Effective != w.Effective ||
			g.LB != w.LB || g.UB != w.UB {
			t.Fatalf("%s: probe %d (T̂=%g raw %g eff %g lb %g ub %g) != (T̂=%g raw %g eff %g lb %g ub %g)",
				label, i, g.That, g.Raw, g.Effective, g.LB, g.UB, w.That, w.Raw, w.Effective, w.LB, w.UB)
		}
		if (g.Alloc == nil) != (w.Alloc == nil) {
			t.Fatalf("%s: probe %d feasibility mismatch", label, i)
		}
		if g.Alloc == nil {
			continue
		}
		if len(g.Alloc.Spans) != len(w.Alloc.Spans) {
			t.Fatalf("%s: probe %d stage count %d != %d", label, i, len(g.Alloc.Spans), len(w.Alloc.Spans))
		}
		for s := range g.Alloc.Spans {
			if g.Alloc.Spans[s] != w.Alloc.Spans[s] || g.Alloc.Procs[s] != w.Alloc.Procs[s] {
				t.Fatalf("%s: probe %d stage %d allocation differs", label, i, s)
			}
		}
	}
}

// TestWarmAcrossCellsMatchesCold is the cross-cell equivalence property:
// a PlannerCache shared across a grid of (P, M) cells — certificates
// crossing processor counts via the p-outermost layout and surviving
// memory changes only through certArm's re-arm — must leave every
// planner output bit-identical to a cold run, in both special-processor
// and contiguous modes. Run it under -race: the cache is exercised from
// the sweep-shaped access pattern the harness uses.
func TestWarmAcrossCellsMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		c := chain.Random(rng, 5+rng.Intn(10), chain.DefaultRandomOptions())
		cache := NewPlannerCache()
		for _, special := range []bool{false, true} {
			for _, pw := range []int{3, 4, 5} {
				for _, mem := range []float64{4e9, 9e9} {
					pl := plat(pw, mem, 12e9)
					pl.Latency = 1e-5
					warm, werr := PlanAllocation(c, pl, Options{Parallel: 1, DisableSpecial: special, Cache: cache})
					cold, cerr := PlanAllocation(c, pl, Options{Parallel: 1, DisableSpecial: special})
					if (werr == nil) != (cerr == nil) {
						t.Fatalf("trial %d special=%v P=%d M=%g: warm err %v, cold err %v",
							trial, special, pw, mem, werr, cerr)
					}
					if werr != nil {
						continue
					}
					comparePhaseOne(t, "warm-across-cells", warm, cold)
				}
			}
		}
	}
}

// TestWarmPlanAndScheduleMatchesCold runs the full two-phase planner
// with and without a shared cache over a small sweep and compares the
// end-to-end Plan (scheduled period, scheduler, final allocation).
func TestWarmPlanAndScheduleMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		c := chain.Random(rng, 5+rng.Intn(8), chain.DefaultRandomOptions())
		cache := NewPlannerCache()
		for _, pw := range []int{3, 5} {
			for _, mem := range []float64{5e9, 10e9} {
				pl := plat(pw, mem, 12e9)
				warm, werr := PlanAndSchedule(c, pl, Options{Parallel: 1, Cache: cache}, ScheduleOptions{})
				cold, cerr := PlanAndSchedule(c, pl, Options{Parallel: 1}, ScheduleOptions{})
				if (werr == nil) != (cerr == nil) {
					t.Fatalf("trial %d P=%d M=%g: warm err %v, cold err %v", trial, pw, mem, werr, cerr)
				}
				if werr != nil {
					continue
				}
				if warm.Period != cold.Period || warm.Scheduler != cold.Scheduler {
					t.Fatalf("trial %d P=%d M=%g: warm plan (%g, %s) != cold (%g, %s)",
						trial, pw, mem, warm.Period, warm.Scheduler, cold.Period, cold.Scheduler)
				}
				wa, ca := warm.Pattern.Alloc, cold.Pattern.Alloc
				if len(wa.Spans) != len(ca.Spans) {
					t.Fatalf("trial %d P=%d M=%g: stage count differs", trial, pw, mem)
				}
				for s := range wa.Spans {
					if wa.Spans[s] != ca.Spans[s] || wa.Procs[s] != ca.Procs[s] {
						t.Fatalf("trial %d P=%d M=%g: scheduled allocation differs at stage %d", trial, pw, mem, s)
					}
				}
			}
		}
	}
}

// TestWarmParallelSearchMatchesCold covers the parallel probe search:
// slot 0 is the cache-backed (possibly warm) lease, so the equivalence
// must hold there too, at any worker budget.
func TestWarmParallelSearchMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		c := chain.Random(rng, 5+rng.Intn(8), chain.DefaultRandomOptions())
		for _, par := range []int{4, 8} {
			cache := NewPlannerCache()
			for _, mem := range []float64{4e9, 8e9} {
				pl := plat(4, mem, 12e9)
				warm, werr := PlanAllocation(c, pl, Options{Parallel: par, Cache: cache})
				cold, cerr := PlanAllocation(c, pl, Options{Parallel: par})
				if (werr == nil) != (cerr == nil) {
					t.Fatalf("trial %d par %d M=%g: warm err %v, cold err %v", trial, par, mem, werr, cerr)
				}
				if werr != nil {
					continue
				}
				comparePhaseOne(t, "warm-parallel", warm, cold)
			}
		}
	}
}

// TestPlannerCacheMemo checks the result memo: a second identical call
// returns the recorded result without re-running Algorithm 1 (the probe
// phase count stays put), and the returned copy is append-isolated from
// the memo's own slice.
func TestPlannerCacheMemo(t *testing.T) {
	c := chain.Uniform(12, 1e-3, 2e-3, 2e8, 1e8)
	pl := plat(4, 8e9, 12e9)
	cache := NewPlannerCache()
	reg := obs.NewRegistry()
	opts := Options{Parallel: 1, Cache: cache, Obs: reg}

	first, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	runs := reg.Counter("dp_runs").Value()
	second, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if got := reg.Counter("dp_runs").Value(); got != runs {
		t.Fatalf("memo hit still ran the DP: dp_runs %d -> %d", runs, got)
	}
	comparePhaseOne(t, "memo", second, first)

	// Appending to the returned Evals must not leak into the memo.
	second.Evals = append(second.Evals, Eval{That: -1})
	third, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatalf("third: %v", err)
	}
	if len(third.Evals) != len(first.Evals) {
		t.Fatalf("memo corrupted by caller append: %d evals != %d", len(third.Evals), len(first.Evals))
	}

	// A different input must miss.
	pl2 := pl
	pl2.Workers = 5
	if _, err := PlanAllocation(c, pl2, opts); err != nil {
		t.Fatalf("P=5: %v", err)
	}
	if got := reg.Counter("dp_runs").Value(); got == runs {
		t.Fatalf("distinct platform hit the memo")
	}
}

// TestTableTrimPolicy: a pooled table whose materialized blocks exceed
// tableTrimFactor times the decayed high-water demand must drop them
// (and count the trim); a table holding only its own lease's blocks must
// keep them, and an alternating big/small lease pattern —
// PlanAndSchedule's special/contiguous rhythm — must never trim.
func TestTableTrimPolicy(t *testing.T) {
	reg := obs.NewRegistry()
	// fill materializes every block of the table's current shape.
	fill := func(tab *dpTable) {
		for idx := 0; idx < tab.size; idx += blockSize {
			tab.put(idx, dpEntry{})
		}
	}
	bigShape := func(tab *dpTable) { tab.reset(16, 4, 16, 4, 16) } // 64 blocks
	smallShape := func(tab *dpTable) { tab.reset(2, 1, 4, 2, 4) }  // 64 states

	// Sustained shrink: a run of small releases halves the high-water
	// mark each time until the big shape's blocks cross the threshold.
	big := &dpTable{}
	bigShape(big)
	fill(big)
	trimOnRelease(big, reg) // hwm = big size
	for i := 0; i < 12 && big.nAlloc > 0; i++ {
		smallShape(big)
		fill(big)
		trimOnRelease(big, reg)
	}
	if big.nAlloc != 0 || big.blocks != nil {
		t.Fatalf("%d blocks survived a sustained run of small releases", big.nAlloc)
	}
	if got := reg.Counter("dp_table_trims").Value(); got != 1 {
		t.Fatalf("dp_table_trims = %d, want 1", got)
	}

	// Alternating big/small keeps the mark pinned at the big size, so
	// the blocks survive: trimming here would reallocate hundreds of
	// megabytes per PlanAndSchedule call.
	alt := &dpTable{}
	bigShape(alt)
	fill(alt)
	keepBig := alt.nAlloc
	trimOnRelease(alt, reg)
	for i := 0; i < 8; i++ {
		smallShape(alt)
		fill(alt)
		trimOnRelease(alt, reg)
		bigShape(alt)
		fill(alt)
		trimOnRelease(alt, reg)
	}
	if alt.nAlloc != keepBig {
		t.Fatalf("alternating big/small lease pattern trimmed the table: %d of %d blocks", alt.nAlloc, keepBig)
	}

	// A table holding only its own lease's blocks keeps them, down to a
	// lease smaller than one block.
	for _, shape := range []func(*dpTable){
		func(tab *dpTable) { tab.reset(6, 3, 8, 4, 8) },
		smallShape,
	} {
		own := &dpTable{}
		shape(own)
		fill(own)
		keep := own.nAlloc
		trimOnRelease(own, reg)
		if own.nAlloc != keep {
			t.Fatalf("proportionate table of %d states was trimmed", own.size)
		}
	}
	if reg.Gauge("dp_table_pool_bytes").Value() == 0 {
		t.Fatalf("dp_table_pool_bytes gauge not observed")
	}
	if got := reg.Counter("dp_table_trims").Value(); got != 1 {
		t.Fatalf("dp_table_trims = %d after proportionate and alternating releases, want still 1", got)
	}
}

// TestProbeStatesPinnedToFig6Report is the regression pin for the
// stats-attribution fix: the first probe of the committed Fig. 6 run
// report is a cold probe (nothing to adopt yet), so its counters must
// stay exactly reproducible — and the headline predicted period with
// them. If this test fails after an intentional planner change,
// regenerate both Fig. 6 fixtures (make fig6-fixtures) and re-commit.
func TestProbeStatesPinnedToFig6Report(t *testing.T) {
	raw, err := os.ReadFile("../../results/planreport_fig6.json")
	if err != nil {
		t.Fatalf("read committed report: %v", err)
	}
	var want PlanReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode committed report: %v", err)
	}

	c, err := nets.Build(nets.Spec{Name: "resnet50", Batch: 8, Size: 1000})
	if err != nil {
		t.Fatalf("build resnet50: %v", err)
	}
	cc, err := c.Coarsen(24)
	if err != nil {
		t.Fatalf("coarsen: %v", err)
	}
	pl := platform.Platform{Workers: 4, Memory: 10 * platform.GB, Bandwidth: 12 * platform.GB}
	res, err := PlanAllocation(cc, pl, Options{Parallel: want.Options.Parallel, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if res.PredictedPeriod != want.PredictedPeriod {
		t.Fatalf("predicted period %g != committed %g", res.PredictedPeriod, want.PredictedPeriod)
	}
	if len(res.Evals) != len(want.Probes) {
		t.Fatalf("%d probes != committed %d", len(res.Evals), len(want.Probes))
	}
	got, pin := res.Evals[0], want.Probes[0]
	if got.That != pin.That {
		t.Fatalf("probe 0 T̂ %g != committed %g", got.That, pin.That)
	}
	if got.States != pin.States || got.Stats.StatesEvaluated != pin.Stats.StatesEvaluated {
		t.Fatalf("probe 0 states (%d, %d) != committed (%d, %d)",
			got.States, got.Stats.StatesEvaluated, pin.States, pin.Stats.StatesEvaluated)
	}
	g, w := got.Stats, pin.Stats
	if g.StatesCertPruned != w.StatesCertPruned || g.CertsRecorded != w.CertsRecorded ||
		g.CutsEvaluated != w.CutsEvaluated || g.ColumnsOpened != w.ColumnsOpened ||
		g.ColumnEntryFills != w.ColumnEntryFills || g.CutsSkippedMonotone != w.CutsSkippedMonotone {
		t.Fatalf("probe 0 counters diverged from committed report:\n got %+v\nwant %+v", g, w)
	}
}

// TestCertArmMemoryChange pins the certArm contract directly: same
// memory resumes the generation, a different memory starts a fresh one.
func TestCertArmMemoryChange(t *testing.T) {
	tab := &dpTable{}
	tab.certArm(1e9) // arm first, then reset sizes the cert arrays (lease order)
	tab.reset(4, 2, 4, 2, 4)
	gen := tab.certEpoch
	tab.certMark(3, 0.5)
	tab.certArm(1e9)
	if tab.certEpoch != gen {
		t.Fatalf("same-memory re-arm bumped the epoch")
	}
	if !tab.certDead(3, 0.4) {
		t.Fatalf("certificate lost across same-memory re-arm")
	}
	tab.certArm(2e9)
	if tab.certEpoch == gen {
		t.Fatalf("memory change did not start a new generation")
	}
	if tab.certDead(3, 0.4) {
		t.Fatalf("certificate survived a memory change")
	}
}

// TestCertReuseMatchesColdProbes checks the cross-probe certificate
// store against the ground truth: every probe Algorithm 1 logs — warm,
// certificate-assisted, column-cached — must report the exact Raw
// period and allocation that a cold, certificate-free DP invocation at
// the same T̂ computes. Memory is squeezed so the bisection's low probes
// genuinely fail and record memory-death certificates that later,
// smaller-T̂ probes consult.
func TestCertReuseMatchesColdProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		c := chain.Random(rng, 4+rng.Intn(8), chain.DefaultRandomOptions())
		pl := plat(3+rng.Intn(3), 2e9+rng.Float64()*6e9, 12e9)
		pl.Latency = rng.Float64() * 1e-4
		for _, par := range []int{1, 8} {
			opts := Options{Iterations: 12, Parallel: par}
			res, err := PlanAllocation(c, pl, opts)
			if err != nil {
				continue // infeasible everywhere: nothing to cross-check
			}
			for _, ev := range res.Evals {
				assertProbeMatchesCold(t, fmt.Sprintf("trial %d parallel %d", trial, par), c, pl, Options{Parallel: 1}, ev)
			}
		}
	}
}

// assertProbeMatchesCold fails unless a search's probe reports the raw
// period and allocation a cold, certificate-free DP computes at its T̂.
func assertProbeMatchesCold(t *testing.T, label string, c *chain.Chain, pl platform.Platform, opts Options, ev Eval) {
	t.Helper()
	cold, err := DP(c, pl, ev.That, opts)
	if err != nil {
		t.Fatalf("%s: cold DP at T̂=%g: %v", label, ev.That, err)
	}
	coldRaw := cold.Period
	if cold.Alloc == nil {
		coldRaw = math.Inf(1)
	}
	if ev.Raw != coldRaw {
		t.Fatalf("%s: warm probe at T̂=%g returned %g, cold solver %g", label, ev.That, ev.Raw, coldRaw)
	}
	if (ev.Alloc == nil) != (cold.Alloc == nil) {
		t.Fatalf("%s: feasibility mismatch at T̂=%g", label, ev.That)
	}
	if ev.Alloc == nil {
		return
	}
	if len(ev.Alloc.Spans) != len(cold.Alloc.Spans) {
		t.Fatalf("%s: %d stages at T̂=%g, cold solver %d", label, len(ev.Alloc.Spans), ev.That, len(cold.Alloc.Spans))
	}
	for i := range ev.Alloc.Spans {
		if ev.Alloc.Spans[i] != cold.Alloc.Spans[i] || ev.Alloc.Procs[i] != cold.Alloc.Procs[i] {
			t.Fatalf("%s: allocation differs at T̂=%g stage %d", label, ev.That, i)
		}
	}
}

// TestDeathCertsPastColMaxL covers chains the column cache does not
// cover, whose cut scalars are computed inline: every probe still
// equals a cold DP at its target, tight memory records and adopts death
// certificates, and a frontier over a memory ladder still equals cold
// per-cell planning — with the store answering a sample inside the
// first search's memory interval.
func TestDeathCertsPastColMaxL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := chain.Random(rng, colMaxL+9, chain.DefaultRandomOptions())
	disc := Discretization{TP: 5, MP: 5, V: 5}
	pl := plat(4, 300e9, 12e9)
	for _, par := range []int{1, 2} {
		res, err := PlanAllocation(c, pl, Options{Disc: disc, Iterations: 6, Parallel: par, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("fan %d: %v", par, err)
		}
		if len(res.Evals) != 6 {
			t.Fatalf("fan %d: %d probes, want 6 (at least three rounds)", par, len(res.Evals))
		}
		var deaths, pruned uint64
		for i, ev := range res.Evals {
			deaths += ev.Stats.CertsRecorded
			pruned += ev.Stats.StatesCertPruned
			assertProbeMatchesCold(t, fmt.Sprintf("fan %d probe %d", par, i), c, pl, Options{Disc: disc}, ev)
		}
		if deaths == 0 || pruned == 0 {
			t.Fatalf("fan %d: tight memory recorded %d death certificates and adopted %d", par, deaths, pruned)
		}
	}

	mems := []float64{2000e9, 1999.999e9, 300e9}
	cache := NewPlannerCache()
	defer cache.Release(nil)
	opts := Options{Disc: disc, Iterations: 3, Parallel: 1, Cache: cache}
	fr, err := PlanFrontier(c, plat(4, 1, 12e9), mems, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fr.FrontierSaved == 0 {
		t.Fatalf("no frontier sample was answered from the store (%d probes, %d saved)", fr.Probes, fr.ProbesSaved)
	}
	for _, mem := range mems {
		pl := plat(4, mem, 12e9)
		cold, err := PlanAllocation(c, pl, Options{Disc: disc, Iterations: 3, Parallel: 1})
		if err != nil {
			t.Fatalf("M=%g: cold plan: %v", mem, err)
		}
		memo, ok := cache.getPlan(planKeyFor(c, pl, opts.withDefaults()))
		if !ok {
			t.Fatalf("M=%g: frontier left no memo entry", mem)
		}
		comparePhaseOne(t, "long-chain frontier sample", memo, cold)
	}
}

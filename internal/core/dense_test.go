package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"madpipe/internal/chain"
)

// TestDenseMatchesMapDP is the equivalence property between the
// dense-table explicit-stack solver and the legacy map-based recursive
// DP: bit-identical periods, state counts and allocations on randomized
// chains. Bit-identical — not almost-equal — because both formulations
// are required to perform the same floating-point operations in the
// same order.
func TestDenseMatchesMapDP(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := chain.Random(rng, 3+rng.Intn(10), chain.DefaultRandomOptions())
		pl := plat(2+rng.Intn(4), 4e9+rng.Float64()*28e9, 12e9)
		pl.Latency = rng.Float64() * 1e-4
		that := c.TotalU() / float64(pl.Workers) * (0.5 + rng.Float64()*2)
		disc := Discretization{TP: 11 + rng.Intn(30), MP: 3 + rng.Intn(8), V: 11 + rng.Intn(30)}
		disableSpecial := rng.Intn(4) == 0

		dense, err := runDP(c, pl, that, dpConfig{disc: disc, disableSpecial: disableSpecial})
		if err != nil {
			t.Logf("seed %d: dense: %v", seed, err)
			return false
		}
		legacy, err := runDPMap(c, pl, that, disc, disableSpecial, chain.WeightPolicy{})
		if err != nil {
			t.Logf("seed %d: map: %v", seed, err)
			return false
		}
		if dense.Period != legacy.Period || dense.States != legacy.States {
			t.Logf("seed %d: dense (period %v, %d states) != map (period %v, %d states)",
				seed, dense.Period, dense.States, legacy.Period, legacy.States)
			return false
		}
		if (dense.Alloc == nil) != (legacy.Alloc == nil) {
			t.Logf("seed %d: feasibility mismatch", seed)
			return false
		}
		if dense.Alloc == nil {
			return true
		}
		if len(dense.Alloc.Spans) != len(legacy.Alloc.Spans) {
			t.Logf("seed %d: stage count %d != %d", seed, len(dense.Alloc.Spans), len(legacy.Alloc.Spans))
			return false
		}
		for i := range dense.Alloc.Spans {
			if dense.Alloc.Spans[i] != legacy.Alloc.Spans[i] || dense.Alloc.Procs[i] != legacy.Alloc.Procs[i] {
				t.Logf("seed %d: stage %d differs: %v@%d vs %v@%d", seed, i,
					dense.Alloc.Spans[i], dense.Alloc.Procs[i], legacy.Alloc.Spans[i], legacy.Alloc.Procs[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestLongChainNoAliasing is the regression test for the historical
// key() packing, which gave l and p only 8 bits each and silently
// aliased DP states on chains longer than 255 layers. Both solvers must
// agree on a 300-layer chain and produce a valid allocation.
func TestLongChainNoAliasing(t *testing.T) {
	c := chain.Uniform(300, 1e-3, 2e-3, 1e6, 1e6)
	pl := plat(4, 1e12, 1e12)
	disc := Discretization{TP: 5, MP: 3, V: 9}
	that := c.TotalU() / 4

	dense, err := runDP(c, pl, that, dpConfig{disc: disc})
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	legacy, err := runDPMap(c, pl, that, disc, false, chain.WeightPolicy{})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if dense.Period != legacy.Period || dense.States != legacy.States {
		t.Fatalf("dense (period %g, %d states) != map (period %g, %d states)",
			dense.Period, dense.States, legacy.Period, legacy.States)
	}
	if dense.Alloc == nil {
		t.Fatalf("expected feasible allocation with ample memory")
	}
	if err := dense.Alloc.Validate(); err != nil {
		t.Fatalf("allocation invalid: %v", err)
	}
}

// TestMapKeyGuard: chains beyond the widened packing limit are rejected
// with a clear error instead of aliasing states.
func TestMapKeyGuard(t *testing.T) {
	c := chain.Uniform(mapKeyMax+1, 1, 1, 1, 1)
	_, err := runDPMap(c, plat(4, 1e12, 1e12), 1e3, Discretization{TP: 2, MP: 2, V: 2}, false, chain.WeightPolicy{})
	if err == nil || !strings.Contains(err.Error(), "packing limit") {
		t.Fatalf("expected packing-limit error, got %v", err)
	}
}

// TestGroupsBoundary pins the epsilon behavior of the group count at
// exact multiples of the target period.
func TestGroupsBoundary(t *testing.T) {
	r := &dpRun{that: 10}
	cases := []struct {
		v, u float64
		want int
	}{
		{0, 10, 1},     // exactly one period -> one group
		{0, 10.001, 2}, // just over -> two
		{5, 5, 1},      // sums to the boundary
		{0, 1e-12, 1},  // clamped up to one group
		{0, 0, 1},
		{10, 10, 2},           // two full periods
		{0, 29.9999999999, 3}, // epsilon guard: 3, not 4
	}
	for _, tc := range cases {
		if got := r.groupsU(tc.v, tc.u); got != tc.want {
			t.Errorf("groupsU(%g,%g) = %d, want %d", tc.v, tc.u, got, tc.want)
		}
	}
}

// TestRoundUpDegenerate covers the grid edge cases the DP relies on:
// non-positive steps and values exactly on grid points.
func TestRoundUpDegenerate(t *testing.T) {
	if got := roundUp(5, 0, 10); got != 0 {
		t.Errorf("roundUp with zero step = %d, want 0", got)
	}
	if got := roundUp(3, 1, 10); got != 3 {
		t.Errorf("roundUp on-grid = %d, want 3", got)
	}
	if got := roundUp(2.9999999999, 1, 10); got != 3 {
		t.Errorf("roundUp epsilon-below-grid = %d, want 3", got)
	}
	if got := roundUp(9.5, 1, 10); got != 9 {
		t.Errorf("roundUp clamps to top index, got %d", got)
	}
}

// TestDenseTableStampReuse exercises the epoch-stamp reset across many
// probes, including the 16-bit stamp wrap, verifying stale entries are
// never visible.
func TestDenseTableStampReuse(t *testing.T) {
	tab := new(dpTable)
	for round := 0; round < 1<<16+10; round++ {
		tab.reset(2, 2, 1, 1, 2)
		i := tab.idx(1, 1, 0, 0, 1)
		if _, ok := tab.get(i); ok {
			t.Fatalf("round %d: stale entry visible after reset", round)
		}
		tab.put(i, dpEntry{period: float64(round), k: 1})
		e, ok := tab.get(i)
		if !ok || e.period != float64(round) || e.k != 1 {
			t.Fatalf("round %d: lost entry: %+v ok=%v", round, e, ok)
		}
		if tab.states != 1 {
			t.Fatalf("round %d: states = %d, want 1", round, tab.states)
		}
	}
}

// TestDenseFallback: shapes the DP table cannot represent must route to the
// map DP and still produce the same answer as the map DP called
// directly.
func TestDenseFallback(t *testing.T) {
	if tableFits(denseMaxL+1, 1, 1, 1, 2) {
		t.Fatalf("tableFits accepted an over-long chain")
	}
	// A big discretization on a long chain exceeds even blocked storage.
	if tableFits(10000, 8, 256, 64, 256) {
		t.Fatalf("tableFits accepted an oversized state space")
	}
	c := chain.Uniform(20, 1, 2, 1e6, 1e6)
	pl := plat(3, 1e12, 1e12)
	disc := Discretization{TP: 5, MP: 3, V: 5}
	that := c.TotalU() / 3
	a, err := runDP(c, pl, that, dpConfig{disc: disc})
	if err != nil {
		t.Fatalf("runDP: %v", err)
	}
	b, err := runDPMap(c, pl, that, disc, false, chain.WeightPolicy{})
	if err != nil {
		t.Fatalf("runDPMap: %v", err)
	}
	if a.Period != b.Period || a.States != b.States {
		t.Fatalf("dense path (period %g) disagrees with map path (period %g)", a.Period, b.Period)
	}
}

// TestPlanAllocationParallel: the speculative concurrent probes must be
// deterministic across repeated runs and stay within the probe budget.
// Run with -race to exercise the concurrency invariants.
func TestPlanAllocationParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := chain.Random(rng, 12, chain.DefaultRandomOptions())
	pl := plat(4, 16e9, 12e9)
	opts := Options{Parallel: 3, Iterations: 9, Disc: Discretization{TP: 21, MP: 5, V: 21}}

	first, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatalf("PlanAllocation: %v", err)
	}
	if len(first.Evals) > opts.Iterations {
		t.Fatalf("parallel search used %d probes, budget %d", len(first.Evals), opts.Iterations)
	}
	for run := 0; run < 3; run++ {
		again, err := PlanAllocation(c, pl, opts)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if again.PredictedPeriod != first.PredictedPeriod || again.TargetPeriod != first.TargetPeriod {
			t.Fatalf("run %d: nondeterministic result: %g@%g vs %g@%g", run,
				again.PredictedPeriod, again.TargetPeriod, first.PredictedPeriod, first.TargetPeriod)
		}
		if len(again.Evals) != len(first.Evals) {
			t.Fatalf("run %d: eval count %d vs %d", run, len(again.Evals), len(first.Evals))
		}
		for i := range again.Evals {
			if again.Evals[i].That != first.Evals[i].That || again.Evals[i].Raw != first.Evals[i].Raw {
				t.Fatalf("run %d: eval %d differs", run, i)
			}
		}
	}

	// The parallel search must not lose to the sequential one by more
	// than bracket-sampling noise, and both must be feasible.
	seq, err := PlanAllocation(c, pl, Options{Iterations: 9, Disc: opts.Disc})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if first.PredictedPeriod > seq.PredictedPeriod*1.05 {
		t.Fatalf("parallel period %g much worse than sequential %g", first.PredictedPeriod, seq.PredictedPeriod)
	}
}

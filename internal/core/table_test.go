package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"madpipe/internal/chain"
)

// TestDenseMatchesMapDP is the equivalence property between the
// table-backed explicit-stack solver and the map-based recursive
// reference: bit-identical periods, allocations and — wherever the
// normal-processor count does not exceed the chain length, so the table
// plans on the unclamped count — state counts on randomized chains.
// Bit-identical — not almost-equal — because both formulations are
// required to perform the same floating-point operations in the same
// order.
func TestDenseMatchesMapDP(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := chain.Random(rng, 3+rng.Intn(10), chain.DefaultRandomOptions())
		pl := plat(2+rng.Intn(4), 4e9+rng.Float64()*28e9, 12e9)
		pl.Latency = rng.Float64() * 1e-4
		that := c.TotalU() / float64(pl.Workers) * (0.5 + rng.Float64()*2)
		disc := Discretization{TP: 11 + rng.Intn(30), MP: 3 + rng.Intn(8), V: 11 + rng.Intn(30)}
		disableSpecial := rng.Intn(4) == 0

		got, err := runDP(c, pl, that, dpConfig{disc: disc, disableSpecial: disableSpecial})
		if err != nil {
			t.Logf("seed %d: table: %v", seed, err)
			return false
		}
		legacy, err := runDPMap(c, pl, that, disc, disableSpecial, chain.WeightPolicy{})
		if err != nil {
			t.Logf("seed %d: map: %v", seed, err)
			return false
		}
		normals := pl.Workers - 1
		if disableSpecial {
			normals = pl.Workers
		}
		if got.Period != legacy.Period || (normals <= c.Len() && got.States != legacy.States) {
			t.Logf("seed %d: table (period %v, %d states) != map (period %v, %d states)",
				seed, got.Period, got.States, legacy.Period, legacy.States)
			return false
		}
		if (got.Alloc == nil) != (legacy.Alloc == nil) {
			t.Logf("seed %d: feasibility mismatch", seed)
			return false
		}
		if got.Alloc == nil {
			return true
		}
		if len(got.Alloc.Spans) != len(legacy.Alloc.Spans) {
			t.Logf("seed %d: stage count %d != %d", seed, len(got.Alloc.Spans), len(legacy.Alloc.Spans))
			return false
		}
		for i := range got.Alloc.Spans {
			if got.Alloc.Spans[i] != legacy.Alloc.Spans[i] || got.Alloc.Procs[i] != legacy.Alloc.Procs[i] {
				t.Logf("seed %d: stage %d differs: %v@%d vs %v@%d", seed, i,
					got.Alloc.Spans[i], got.Alloc.Procs[i], legacy.Alloc.Spans[i], legacy.Alloc.Procs[i])
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

	got, err := runDP(c, pl, that, dpConfig{disc: disc})
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	legacy, err := runDPMap(c, pl, that, disc, false, chain.WeightPolicy{})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if got.Period != legacy.Period || got.States != legacy.States {
		t.Fatalf("table (period %g, %d states) != map (period %g, %d states)",
			got.Period, got.States, legacy.Period, legacy.States)
	}
	if got.Alloc == nil {
		t.Fatalf("expected feasible allocation with ample memory")
	}
	if err := got.Alloc.Validate(); err != nil {
		t.Fatalf("allocation invalid: %v", err)
	}
}

// TestMapKeyGuard: chains past MaxDPIndex layers are rejected with
// ErrShapeTooLarge before the table sizes its block directory, and the
// map reference refuses them at its key's packing limit instead of
// aliasing states.
func TestMapKeyGuard(t *testing.T) {
	c := chain.Uniform(MaxDPIndex+1, 1, 1, 1, 1)
	pl := plat(4, 1e12, 1e12)
	disc := Discretization{TP: 2, MP: 2, V: 2}
	tab := new(dpTable)
	if _, err := runDPWith(tab, c, pl, 1e3, dpConfig{disc: disc}); !errors.Is(err, ErrShapeTooLarge) {
		t.Fatalf("table DP: want ErrShapeTooLarge, got %v", err)
	}
	if tab.blocks != nil || tab.wrote != nil {
		t.Fatalf("a rejected shape sized a %d-block directory", len(tab.blocks))
	}
	if _, err := runDPMap(c, pl, 1e3, disc, false, chain.WeightPolicy{}); err == nil {
		t.Fatal("map reference accepted a chain past its key's packing limit")
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

// TestTableStatsPerRun: a run's table stats count the blocks that run
// wrote, so a pooled table that first planned a longer chain — and still
// holds that chain's blocks — reports the same footprint for a run as a
// fresh table does.
func TestTableStatsPerRun(t *testing.T) {
	short := chain.Uniform(60, 1e-3, 2e-3, 1e6, 1e6)
	long := chain.Uniform(400, 1e-3, 2e-3, 1e6, 1e6)
	pl := plat(4, 1e12, 1e12)
	cfg := dpConfig{disc: Discretization{TP: 5, MP: 3, V: 9}}
	run := func(tab *dpTable, c *chain.Chain) DPStats {
		t.Helper()
		res, err := runDPWith(tab, c, pl, c.TotalU()/4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	want := run(new(dpTable), short)
	if want.TableBlocksResident == 0 || want.TableResidentBytes != want.TableBlocksResident*blockSize*32 {
		t.Fatalf("fresh run: %d blocks, %d resident bytes", want.TableBlocksResident, want.TableResidentBytes)
	}
	used := new(dpTable)
	run(used, long)
	got := run(used, short)
	if got.TableBlocksResident != want.TableBlocksResident || got.TableResidentBytes != want.TableResidentBytes {
		t.Fatalf("after a longer chain: %d blocks, %d bytes; fresh table: %d blocks, %d bytes",
			got.TableBlocksResident, got.TableResidentBytes, want.TableBlocksResident, want.TableResidentBytes)
	}
	if used.nAlloc <= int(got.TableBlocksResident) {
		t.Fatalf("test setup: the used table holds %d blocks, no more than the run wrote", used.nAlloc)
	}
}

// TestRecordSizes pins the table's record layout: two dpStates share a
// 64-byte cache line and a column entry is 16 bytes. Every byte figure
// the table reports is derived from these sizes.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(dpState{}); got != 32 {
		t.Errorf("dpState is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(colEnt{}); got != 16 {
		t.Errorf("colEnt is %d bytes, want 16", got)
	}
}

// TestDenseFallback: a shape past the table's 2^33 virtual states is
// rejected with ErrShapeTooLarge before any table is sized — there is no
// second solver to fall back to —, the state count is taken after normals
// are clamped to the chain length, and a shape inside the bounds plans
// exactly like the map reference.
func TestDenseFallback(t *testing.T) {
	big := Discretization{TP: 256, MP: 64, V: 256}
	// A big discretization on a long chain exceeds the table.
	long := chain.Uniform(10000, 1, 2, 1e6, 1e6)
	tab := new(dpTable)
	if _, err := runDPWith(tab, long, plat(9, 1e12, 1e12), long.TotalU()/9, dpConfig{disc: big}); !errors.Is(err, ErrShapeTooLarge) {
		t.Fatalf("oversized state space: want ErrShapeTooLarge, got %v", err)
	}
	if tab.blocks != nil || tab.wrote != nil {
		t.Fatalf("a rejected shape sized a %d-block directory", len(tab.blocks))
	}
	// 21 × 60000 × 256 × 64 × 256 states unclamped, 21 × 21 × ... clamped.
	if normals, err := clampShape(20, 59999, big.TP, big.MP, big.V); err != nil || normals != 20 {
		t.Fatalf("clampShape(20 layers, 59999 normals) = %d, %v; want 20 normals", normals, err)
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
		t.Fatalf("table path (period %g) disagrees with map path (period %g)", a.Period, b.Period)
	}
}

// TestHugeWorkerCountRejected: a worker count whose packed state count
// overflows int must not slip past the shape check — it used to wrap
// negative, pass the bound and panic in dpTable.reset (2^54+1 workers),
// or plan on wrapped indices and return a plan (2^55+9). Both shapes are
// past MaxDPIndex normal processors and are rejected with
// ErrShapeTooLarge before the state count is multiplied out or a table
// is sized.
func TestHugeWorkerCountRejected(t *testing.T) {
	c := chain.Uniform(7, 1e-3, 2e-3, 1e6, 1e6)
	disc := Discretization{TP: 4, MP: 4, V: 4}
	for _, workers := range []int{1<<54 + 1, 1<<55 + 9} {
		pl := plat(workers, 1e12, 1e12)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("workers %d: panic: %v", workers, p)
				}
			}()
			tab := new(dpTable)
			if _, err := runDPWith(tab, c, pl, c.TotalU(), dpConfig{disc: disc}); !errors.Is(err, ErrShapeTooLarge) {
				t.Errorf("workers %d: table DP: want ErrShapeTooLarge, got %v", workers, err)
			}
			if tab.blocks != nil || tab.wrote != nil {
				t.Errorf("workers %d: a rejected shape sized a %d-block directory", workers, len(tab.blocks))
			}
			res, err := PlanAllocation(c, pl, Options{Disc: disc, Parallel: 1})
			if !errors.Is(err, ErrShapeTooLarge) {
				t.Errorf("workers %d: got plan %v, err %v; want ErrShapeTooLarge", workers, res, err)
			}
		}()
	}
	if normals, err := clampShape(c.Len(), MaxDPIndex, disc.TP, disc.MP, disc.V); err != nil || normals != c.Len() {
		t.Errorf("clampShape rejected or mis-clamped a shape inside the bounds: %d, %v", normals, err)
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

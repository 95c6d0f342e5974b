package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"madpipe/internal/chain"
	"madpipe/internal/pipedream"
	"madpipe/internal/platform"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestOplus(t *testing.T) {
	r := &dpRun{that: 10}
	cases := []struct{ x, y, want float64 }{
		{0, 3, 3},       // stays in group 1
		{3, 4, 7},       // still group 1
		{7, 5, 15},      // crosses into group 2: ceil(7/10)=1 != ceil(12/10)=2 -> 10*1+5
		{12, 3, 15},     // ceil(12/10)=2 == ceil(15/10)=2
		{12, 9, 29},     // crosses: 10*2+9
		{10, 5, 15},     // exactly at boundary: ceil(10/10)=1, ceil(15/10)=2 -> 10*1+5
		{0, 0, 0},       // degenerate
		{19.5, 1, 21},   // crosses: 10*2+1
		{20, 0.5, 20.5}, // ceil(20/10)=2, ceil(20.5/10)=3 -> 10*2+0.5
	}
	for _, tc := range cases {
		if got := r.oplus(tc.x, tc.y); !almost(got, tc.want) {
			t.Errorf("oplus(%g,%g) = %g, want %g", tc.x, tc.y, got, tc.want)
		}
	}
}

// TestCutDelayMatchesReference: the table DP's cut arithmetic (cutDelay
// plus groupCount) must equal the reference groupsU and
// oplus(oplus(v, u), cl) bit for bit, on sums that land exactly on group
// boundaries (both ⊕ steps snapping or not) as well as on random ones.
func TestCutDelayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(that, v, u, cl float64) {
		t.Helper()
		r := &dpRun{that: that}
		cw, got := r.cutDelay(v, r.ceilT(v), u, cl)
		want := r.oplus(r.oplus(v, u), cl)
		if g, wg := groupCount(cw), r.groupsU(v, u); g != wg || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("T̂=%g v=%g u=%g cl=%g: cutDelay gives g=%d vNext=%x, reference g=%d vNext=%x",
				that, v, u, cl, g, math.Float64bits(got), wg, math.Float64bits(want))
		}
	}
	for _, tc := range [][4]float64{
		{10, 0, 0, 0}, {10, 0, 10, 0}, {10, 10, 5, 5}, {10, 7, 5, 8},
		{10, 20, 0.5, 9.5}, {10, 0, 1e-12, 1e-12}, {10, 5, 5, 10},
	} {
		check(tc[0], tc[1], tc[2], tc[3])
	}
	for i := 0; i < 200000; i++ {
		that := 0.1 + 10*rng.Float64()
		grid := that / float64(1+rng.Intn(8))
		v := float64(rng.Intn(40)) * grid
		u := float64(rng.Intn(40)) * grid
		cl := float64(rng.Intn(40)) * grid
		if i%2 == 1 {
			u, cl = 3*that*rng.Float64(), 3*that*rng.Float64()
		}
		check(that, v, u, cl)
	}
}

func TestGroupsFormula(t *testing.T) {
	c := chain.Uniform(4, 1, 1, 1, 1) // U per layer = 2
	r := &dpRun{c: c, that: 5}
	if got := r.groups(1, 2, 0); got != 1 { // ceil(4/5)
		t.Errorf("groups = %d, want 1", got)
	}
	if got := r.groups(1, 4, 3); got != 3 { // ceil((3+8)/5)
		t.Errorf("groups = %d, want 3", got)
	}
	if got := r.groups(1, 1, 0); got != 1 {
		t.Errorf("groups should be at least 1")
	}
}

func TestRoundUp(t *testing.T) {
	if got := roundUp(0, 1, 10); got != 0 {
		t.Errorf("roundUp(0) = %d", got)
	}
	if got := roundUp(2.5, 1, 10); got != 3 {
		t.Errorf("roundUp(2.5,1) = %d, want 3", got)
	}
	if got := roundUp(3.0000000001, 1, 10); got != 3 {
		t.Errorf("roundUp near-integer = %d, want 3 (epsilon guard)", got)
	}
	if got := roundUp(99, 1, 10); got != 9 {
		t.Errorf("roundUp clamps at top, got %d", got)
	}
	if got := roundUp(-1, 1, 10); got != 0 {
		t.Errorf("roundUp clamps at bottom, got %d", got)
	}
}

func plat(p int, m, bw float64) platform.Platform {
	return platform.Platform{Workers: p, Memory: m, Bandwidth: bw}
}

func TestDPBalancedUniform(t *testing.T) {
	// Uniform chain, ample memory: the DP must find a period close to
	// U(1,L)/P (perfect load balance, negligible comm).
	c := chain.Uniform(8, 1, 2, 1e6, 1e6)
	pl := plat(4, 1e12, 1e12)
	res, err := DP(c, pl, c.TotalU()/4, Options{})
	if err != nil {
		t.Fatalf("DP: %v", err)
	}
	if res.Alloc == nil {
		t.Fatalf("DP infeasible with ample memory")
	}
	if res.Period > c.TotalU()/4+1e-6 {
		t.Errorf("period %g, want ~%g", res.Period, c.TotalU()/4)
	}
	if err := res.Alloc.Validate(); err != nil {
		t.Fatalf("allocation invalid: %v", err)
	}
}

func TestDPInfeasibleMemory(t *testing.T) {
	c := chain.Uniform(4, 1, 2, 1e9, 1e9)
	pl := plat(2, 1e3, 1e12)
	res, err := DP(c, pl, 10, Options{})
	if err != nil {
		t.Fatalf("DP: %v", err)
	}
	if res.Alloc != nil || res.Period != math.MaxFloat64 {
		t.Fatalf("expected infeasible, got period %g", res.Period)
	}
}

func TestDPSingleWorker(t *testing.T) {
	// One worker: everything must land on the special processor as a
	// single stage; period = U(1,L).
	c := chain.Uniform(5, 1, 1, 1e3, 1e3)
	pl := plat(1, 1e9, 1e9)
	res, err := DP(c, pl, c.TotalU(), Options{})
	if err != nil {
		t.Fatalf("DP: %v", err)
	}
	if res.Alloc == nil {
		t.Fatalf("infeasible")
	}
	if !almost(res.Period, c.TotalU()) {
		t.Errorf("period %g, want %g", res.Period, c.TotalU())
	}
	if n := res.Alloc.NumStages(); n != 1 {
		t.Errorf("stages = %d, want 1", n)
	}
}

func TestDPDisableSpecialIsContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		c := chain.Random(rng, 8, chain.DefaultRandomOptions())
		pl := plat(3, 64e9, 12e9)
		res, err := DP(c, pl, c.TotalU()/3, Options{DisableSpecial: true})
		if err != nil {
			t.Fatalf("DP: %v", err)
		}
		if res.Alloc == nil {
			continue
		}
		if !res.Alloc.IsContiguous() {
			t.Fatalf("DisableSpecial produced non-contiguous allocation: %v", res.Alloc)
		}
	}
}

func TestPlanAllocationBasics(t *testing.T) {
	c := chain.ConvLike(16, 1.0, 2e9, 6e8)
	pl := plat(4, 8e9, 12e9)
	res, err := PlanAllocation(c, pl, Options{})
	if err != nil {
		t.Fatalf("PlanAllocation: %v", err)
	}
	if res.Alloc == nil {
		t.Fatalf("nil allocation")
	}
	if err := res.Alloc.Validate(); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	if res.PredictedPeriod < c.TotalU()/4-1e-9 {
		t.Errorf("predicted period %g below the U/P lower bound %g", res.PredictedPeriod, c.TotalU()/4)
	}
	if len(res.Evals) == 0 || len(res.Evals) > 10 {
		t.Errorf("expected 1..10 evals, got %d", len(res.Evals))
	}
	if res.TargetPeriod <= 0 {
		t.Errorf("TargetPeriod = %g", res.TargetPeriod)
	}
	// The special processor hosts all non-normal stages.
	if sp := res.Alloc.Special(); sp >= 0 && sp != pl.Workers-1 {
		t.Errorf("special processor id = %d, want %d", sp, pl.Workers-1)
	}
}

func TestPlanAllocationInfeasible(t *testing.T) {
	c := chain.Uniform(4, 1, 2, 1e9, 1e9)
	pl := plat(2, 1e3, 1e12)
	_, err := PlanAllocation(c, pl, Options{})
	if !errors.Is(err, platform.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestPlanAllocationNegativeIterations: a negative probe budget (the
// serving API passes it through unchecked) runs no probe at any fan and
// reports infeasibility instead of panicking.
func TestPlanAllocationNegativeIterations(t *testing.T) {
	c := chain.Uniform(4, 1, 2, 1e6, 1e6)
	for _, par := range []int{1, 4} {
		_, err := PlanAllocation(c, plat(2, 1e12, 1e12), Options{Iterations: -3, Parallel: par})
		if !errors.Is(err, platform.ErrInfeasible) {
			t.Fatalf("parallel %d: err = %v, want ErrInfeasible", par, err)
		}
	}
}

func TestPlanAndScheduleValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		c := chain.Random(rng, 10, chain.DefaultRandomOptions())
		pl := plat(4, 12e9, 12e9)
		plan, err := PlanAndSchedule(c, pl, Options{}, ScheduleOptions{})
		if errors.Is(err, platform.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := plan.Pattern.Validate(); err != nil {
			t.Fatalf("trial %d: invalid pattern: %v", trial, err)
		}
		if plan.Period < plan.Pattern.Alloc.LoadPeriod()-1e-9 {
			t.Errorf("trial %d: period %g below load bound", trial, plan.Period)
		}
		if plan.Scheduler != "1f1b*" && plan.Scheduler != "list" {
			t.Errorf("trial %d: unexpected scheduler %q", trial, plan.Scheduler)
		}
	}
}

// MadPipe's valid schedule should never be drastically worse than
// PipeDream's on the same instance; across a small random family it wins
// or ties in aggregate. (Per-instance superiority is not guaranteed —
// discretization — so only the aggregate is asserted.)
func TestMadPipeCompetitiveWithPipeDream(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var mpSum, pdSum float64
	n := 0
	for trial := 0; trial < 15; trial++ {
		c := chain.ConvLike(12, 1.0, 1.5e9, 9e8)
		// Vary platform tightness across trials.
		mem := []float64{4e9, 6e9, 8e9, 12e9}[trial%4]
		pl := plat(2+trial%3*2, mem, 12e9)
		_ = rng
		mp, err1 := PlanAndSchedule(c, pl, Options{}, ScheduleOptions{})
		pd := pipedreamValid(c, pl)
		if err1 != nil || pd == 0 {
			continue
		}
		mpSum += math.Log(mp.Period)
		pdSum += math.Log(pd)
		n++
		if mp.Period > pd*1.5+1e-9 {
			t.Errorf("trial %d (P=%d M=%.0fGB): MadPipe %g much worse than PipeDream %g",
				trial, pl.Workers, mem/1e9, mp.Period, pd)
		}
	}
	if n == 0 {
		t.Skip("no feasible instances")
	}
	if mpSum > pdSum+1e-9 {
		t.Errorf("geomean MadPipe period exceeds PipeDream: %g vs %g", math.Exp(mpSum/float64(n)), math.Exp(pdSum/float64(n)))
	}
}

// pipedreamValid returns PipeDream's valid-schedule period or 0.
func pipedreamValid(c *chain.Chain, pl platform.Platform) float64 {
	res, err := pipedream.Plan(c, pl)
	if err != nil {
		return 0
	}
	plan, err := ScheduleAllocation(res.Alloc, ScheduleOptions{})
	if err != nil {
		return 0
	}
	return plan.Period
}

// Property: the DP result (when feasible) is achievable by some
// allocation, hence at least the trivial lower bound and at most the
// sequential upper bound; and its reconstruction is consistent with the
// reported period.
func TestDPReconstructionConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := chain.Random(rng, 3+rng.Intn(8), chain.DefaultRandomOptions())
		pl := plat(2+rng.Intn(3), 8e9+rng.Float64()*24e9, 12e9)
		that := c.TotalU() / float64(pl.Workers) * (0.5 + rng.Float64()*2)
		res, err := DP(c, pl, that, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Alloc == nil {
			return true
		}
		if err := res.Alloc.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		lb := c.TotalU() / float64(pl.Workers)
		if res.Period < lb-1e-9 {
			t.Logf("seed %d: period %g below lower bound %g", seed, res.Period, lb)
			return false
		}
		// The allocation's load period never exceeds the DP's claimed
		// period by more than the per-cut-vs-per-link approximation: for
		// allocations whose active cuts touch distinct processor pairs
		// they must agree within tolerance.
		sharesLink := false
		loads := res.Alloc.LinkLoads()
		cutCount := 0
		for s := 1; s < res.Alloc.NumStages(); s++ {
			if res.Alloc.CutActive(s) {
				cutCount++
			}
		}
		if cutCount != len(loads) {
			sharesLink = true
		}
		if !sharesLink && res.Alloc.LoadPeriod() > res.Period+1e-6*res.Period {
			t.Logf("seed %d: load period %g exceeds DP period %g", seed, res.Alloc.LoadPeriod(), res.Period)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestResolveParallel(t *testing.T) {
	if got := resolveParallel(0); got != runtime.GOMAXPROCS(0) || got < 1 {
		t.Fatalf("resolveParallel(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := resolveParallel(-3); got != 1 {
		t.Fatalf("resolveParallel(-3) = %d, want 1", got)
	}
	if got := resolveParallel(7); got != 7 {
		t.Fatalf("resolveParallel(7) = %d, want 7", got)
	}
	for _, tc := range []struct{ w, fan int }{
		{1, 1}, {2, 2}, {4, 4}, {8, 4}, {16, 4},
	} {
		if fan := probeFan(tc.w); fan != tc.fan {
			t.Fatalf("probeFan(%d) = %d, want %d", tc.w, fan, tc.fan)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"madpipe/internal/chain"
	"madpipe/internal/platform"
)

// exhaustiveRun evaluates MadPipe-DP with no early decision at all:
// every cut k of every state, both branches wherever memory admits
// them, and a strict < update in the production scan order (k
// descending, normal before special), so ties resolve as in the
// production solvers. It shares only the run set-up (newMapRun) and the
// reference arithmetic (groupsU, oplus, roundUp, stageMem, baseCase)
// with them — no monotone break, no cl or tNext skip, no
// work-conservation floor, no certificates — so it can vouch for every
// pruning rule the table solver and the map reference both apply.
type exhaustiveRun struct {
	*mapRun
}

func newExhaustiveRun(c *chain.Chain, pl platform.Platform, that float64, disc Discretization, disableSpecial bool) *exhaustiveRun {
	return &exhaustiveRun{newMapRun(c, pl, that, disc, disableSpecial, chain.WeightPolicy{})}
}

func (r *exhaustiveRun) value(l, p, itP, imP, iV int) float64 {
	if l == 0 {
		return float64(itP) * r.stepT
	}
	key := mapKey(l, p, itP, imP, iV)
	if e, ok := r.memo[key]; ok {
		return e.period
	}
	e := r.eval(l, p, itP, imP, iV)
	r.memo[key] = e
	return e.period
}

func (r *exhaustiveRun) eval(l, p, itP, imP, iV int) dpEntry {
	tP := float64(itP) * r.stepT
	mP := float64(imP) * r.stepM
	v := float64(iV) * r.stepV
	if p == 0 {
		return r.baseCase(l, tP, mP, v)
	}
	best := dpEntry{period: inf, k: -1}
	for k := l; k >= 1; k-- {
		u := r.uTo[l] - r.uTo[k-1]
		g := r.groupsU(v, u)
		cl := r.cLeft[k]
		iVN := roundUp(r.oplus(r.oplus(v, u), cl), r.stepV, r.nV)
		if r.stageMem(k, l, g) <= r.mem {
			cand := math.Max(u, math.Max(cl, r.value(k-1, p-1, itP, imP, iVN)))
			if cand < best.period {
				best = dpEntry{period: cand, k: int32(k)}
			}
		}
		if r.disableSpecial {
			continue
		}
		if mNext := mP + r.stageMem(k, l, g-1); mNext <= r.mem {
			itPN := roundUp(tP+u, r.stepT, r.nT)
			imPN := roundUp(mNext, r.stepM, r.nM)
			sub := r.value(k-1, p, itPN, imPN, iVN)
			cand := math.Max(float64(itPN)*r.stepT, math.Max(cl, sub))
			if cand < best.period {
				best = dpEntry{period: cand, k: int32(k), special: true}
			}
		}
	}
	return best
}

// oracleCase is one randomized DP instance for the exhaustive oracle.
type oracleCase struct {
	c              *chain.Chain
	pl             platform.Platform
	disc           Discretization
	disableSpecial bool
	that           float64
}

// randomOracleCase draws a tiny instance. The mix deliberately covers
// the floor's edge cases: 2-point grids on every axis, uniform chains
// whose prefix sums land exactly on t_P grid points (binary-exact layer
// costs, so roundUp's epsilon decides the snap), the contiguous
// ablation, memory limits near the chain's own stage memory, and up to
// six processors.
func randomOracleCase(rng *rand.Rand) oracleCase {
	pick := func() int { return []int{2, 2, 3, 4, 5, 7}[rng.Intn(6)] }
	disc := Discretization{TP: pick(), MP: pick(), V: pick()}
	var c *chain.Chain
	switch rng.Intn(3) {
	case 0:
		// Uniform layers of binary-exact cost: prefix sums are exact
		// multiples of stepT whenever L is a multiple of TP-1.
		c = chain.Uniform((disc.TP-1)*(1+rng.Intn(3)), 0.25, 0.5, 1e6*float64(1+rng.Intn(8)), 1e6*float64(1+rng.Intn(8)))
	case 1:
		c = chain.Uniform(1+rng.Intn(12), 1e-3, 2e-3, 2e7, 4e6)
	default:
		c = chain.Random(rng, 1+rng.Intn(12), chain.DefaultRandomOptions())
	}
	p := 1 + rng.Intn(6)
	mem := 1e15
	if rng.Intn(2) == 0 {
		// Tight: around the whole chain's one-group stage memory spread
		// over the processors, so memory checks pass and fail.
		mem = c.StageMemory(1, c.Len(), 1) / float64(p) * (0.3 + 2.5*rng.Float64())
	}
	pl := plat(p, mem, 12e9*(0.5+rng.Float64()))
	pl.Latency = rng.Float64() * 1e-4
	return oracleCase{
		c: c, pl: pl, disc: disc,
		disableSpecial: rng.Intn(4) == 0,
		that:           c.TotalU() / float64(p) * (0.3 + 2*rng.Float64()),
	}
}

// checkAgainstOracle runs the production table DP on tc and asserts its
// period, feasibility and reconstructed spans and processors equal the
// exhaustive oracle's.
func checkAgainstOracle(t *testing.T, name string, tc oracleCase) {
	t.Helper()
	got, err := runDP(tc.c, tc.pl, tc.that, dpConfig{disc: tc.disc, disableSpecial: tc.disableSpecial})
	if err != nil {
		t.Fatalf("%s: table DP: %v", name, err)
	}
	ref := newExhaustiveRun(tc.c, tc.pl, tc.that, tc.disc, tc.disableSpecial)
	normals := tc.pl.Workers - 1
	if tc.disableSpecial {
		normals = tc.pl.Workers
	}
	want := ref.value(tc.c.Len(), normals, 0, 0, 0)
	if got.Period != want {
		t.Fatalf("%s: table DP period %v, exhaustive oracle %v", name, got.Period, want)
	}
	if want == inf {
		if got.Alloc != nil {
			t.Fatalf("%s: table DP returned an allocation the oracle finds infeasible", name)
		}
		return
	}
	wantAlloc, err := ref.reconstructMap(normals)
	if err != nil {
		t.Fatalf("%s: oracle reconstruction: %v", name, err)
	}
	if got.Alloc == nil || len(got.Alloc.Spans) != len(wantAlloc.Spans) {
		t.Fatalf("%s: table DP allocation %v, oracle %v", name, got.Alloc, wantAlloc)
	}
	for i := range wantAlloc.Spans {
		if got.Alloc.Spans[i] != wantAlloc.Spans[i] || got.Alloc.Procs[i] != wantAlloc.Procs[i] {
			t.Fatalf("%s: stage %d: table DP %v@%d, oracle %v@%d", name, i,
				got.Alloc.Spans[i], got.Alloc.Procs[i], wantAlloc.Spans[i], wantAlloc.Procs[i])
		}
	}
}

// TestExhaustiveOracle checks the table solver's pruning — the monotone
// break, the cl and tNext skips and the work-conservation floor — against
// a recursion that prunes nothing, on 2,400 random tiny chains. The map
// reference mirrors every one of those rules, so table = map cannot
// catch an unsound one; this oracle can (a floor inflated by 5% fails
// here within the first hundred cases).
func TestExhaustiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2400; i++ {
		tc := randomOracleCase(rng)
		checkAgainstOracle(t, fmt.Sprintf("case %d", i), tc)
	}
}

// TestExhaustiveOracleProbes extends the oracle to Algorithm 1's probe
// sequence: every probe of a certificate-armed search — death
// certificates adopted across probes alongside the floor — must return
// the oracle's period at its target.
func TestExhaustiveOracleProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		tc := randomOracleCase(rng)
		res, err := PlanAllocation(tc.c, tc.pl, Options{
			Disc: tc.disc, DisableSpecial: tc.disableSpecial, Parallel: 1, Iterations: 8,
		})
		if err != nil {
			continue // infeasible at every probe: nothing to compare
		}
		normals := tc.pl.Workers - 1
		if tc.disableSpecial {
			normals = tc.pl.Workers
		}
		for j, ev := range res.Evals {
			want := newExhaustiveRun(tc.c, tc.pl, ev.That, tc.disc, tc.disableSpecial).value(tc.c.Len(), normals, 0, 0, 0)
			if want == inf {
				want = math.Inf(1)
			}
			if ev.Raw != want {
				t.Fatalf("case %d probe %d (T̂=%g): search read %v, exhaustive oracle %v", i, j, ev.That, ev.Raw, want)
			}
		}
	}
}

// TestExhaustiveOracleInline runs the oracle past colMaxL, where the
// table solver computes its cut scalars inline (with the hoisted ⊕
// arithmetic) instead of from the column cache.
func TestExhaustiveOracleInline(t *testing.T) {
	if testing.Short() {
		t.Skip("two exhaustive DPs over 1030-layer chains")
	}
	rng := rand.New(rand.NewSource(29))
	for i, tight := range []bool{false, true} {
		c := chain.Random(rng, colMaxL+6, chain.DefaultRandomOptions())
		mem := 1e15
		if tight {
			mem = c.StageMemory(1, c.Len(), 1) / 3 * 0.8
		}
		pl := plat(3, mem, 12e9)
		checkAgainstOracle(t, fmt.Sprintf("inline case %d", i), oracleCase{
			c: c, pl: pl, disc: Discretization{TP: 2, MP: 2, V: 2}, that: c.TotalU() / 3 * 1.2,
		})
	}
}

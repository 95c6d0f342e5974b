package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"madpipe/internal/chain"
	"madpipe/internal/nets"
	"madpipe/internal/obs"
)

func samePhaseOne(a, b *PhaseOneResult) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.PredictedPeriod != b.PredictedPeriod || a.TargetPeriod != b.TargetPeriod {
		return false
	}
	if len(a.Evals) != len(b.Evals) {
		return false
	}
	for i := range a.Evals {
		if a.Evals[i].That != b.Evals[i].That || a.Evals[i].Raw != b.Evals[i].Raw {
			return false
		}
	}
	if (a.Alloc == nil) != (b.Alloc == nil) {
		return false
	}
	if a.Alloc != nil {
		if len(a.Alloc.Spans) != len(b.Alloc.Spans) {
			return false
		}
		for i := range a.Alloc.Spans {
			if a.Alloc.Spans[i] != b.Alloc.Spans[i] || a.Alloc.Procs[i] != b.Alloc.Procs[i] {
				return false
			}
		}
	}
	return true
}

// TestPlanCoarsenIdentityBitIdentical is the exactness property at
// granularity 1: CoarsenGroup=1 runs the full coarsening pipeline
// (provenance, coarse-space planning, un-coarsening) through an
// identity pass, so every planner output must be bit-identical to the
// uncoarsened run — periods, probe trajectory and allocation.
func TestPlanCoarsenIdentityBitIdentical(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := chain.Random(rng, 4+rng.Intn(12), chain.DefaultRandomOptions())
		pl := plat(2+rng.Intn(4), 4e9+rng.Float64()*28e9, 12e9)
		opts := Options{Iterations: 6, Disc: Discretization{TP: 15, MP: 4, V: 15}, Parallel: 1}

		plain, plainErr := PlanAllocation(c, pl, opts)
		opts.CoarsenGroup = 1
		ident, err := PlanAllocation(c, pl, opts)
		if plainErr != nil {
			// Some random cells are legitimately infeasible; the identity
			// pass must fail them identically.
			if err == nil || err.Error() != plainErr.Error() {
				t.Logf("seed %d: plain err %v, identity err %v", seed, plainErr, err)
				return false
			}
			return true
		}
		if err != nil {
			t.Logf("seed %d: identity: %v", seed, err)
			return false
		}
		if !samePhaseOne(plain, ident) {
			t.Logf("seed %d: identity coarsening changed the result", seed)
			return false
		}
		if (plain.Alloc == nil) != (ident.Alloc == nil) {
			return false
		}
		if plain.Alloc != nil {
			if ident.Alloc.Chain != c {
				t.Logf("seed %d: identity result not on the original chain", seed)
				return false
			}
			if len(plain.Alloc.Spans) != len(ident.Alloc.Spans) {
				return false
			}
			for i := range plain.Alloc.Spans {
				if plain.Alloc.Spans[i] != ident.Alloc.Spans[i] || plain.Alloc.Procs[i] != ident.Alloc.Procs[i] {
					t.Logf("seed %d: stage %d differs", seed, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCoarsenCNNIdentity runs the same identity property through a
// real profiled network, end to end (PlanAndSchedule's phase 1).
func TestPlanCoarsenCNNIdentity(t *testing.T) {
	c := nets.MustBuild(nets.Spec{Name: "resnet50", Batch: 4, Size: 224})
	pl := plat(4, 12e9, 12e9)
	opts := Options{Iterations: 6, Disc: Discretization{TP: 21, MP: 5, V: 21}, Parallel: 1}

	plain, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CoarsenGroup = 1
	ident, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !samePhaseOne(plain, ident) {
		t.Fatalf("identity coarsening changed the CNN plan: %g@%g vs %g@%g",
			ident.PredictedPeriod, ident.TargetPeriod, plain.PredictedPeriod, plain.TargetPeriod)
	}
}

// TestPlanCoarsenUniformChain: on a fully uniform chain whose length is
// divisible by both the group size and the worker count, the
// unrestricted optimum is an even split whose cuts all land on
// super-layer boundaries — so merging must be EXACT: bit-identical
// period and identical un-coarsened cuts, in both planning modes.
func TestPlanCoarsenUniformChain(t *testing.T) {
	c := chain.Uniform(64, 1e-3, 2e-3, 1e7, 4e6)
	pl := plat(4, 1e12, 64e9)
	for _, disableSpecial := range []bool{false, true} {
		opts := Options{Iterations: 8, Disc: Discretization{TP: 21, MP: 5, V: 21}, Parallel: 1,
			DisableSpecial: disableSpecial}
		plain, err := PlanAllocation(c, pl, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.CoarsenGroup = 8 // 64 layers -> 8 super-layers of 8
		coarse, err := PlanAllocation(c, pl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Alloc == nil || coarse.Alloc == nil {
			t.Fatalf("disableSpecial=%v: expected feasible plans", disableSpecial)
		}
		if coarse.Alloc.Chain != c {
			t.Fatalf("coarse plan not un-coarsened to the original chain")
		}
		if err := coarse.Alloc.Validate(); err != nil {
			t.Fatalf("un-coarsened allocation invalid: %v", err)
		}
		if coarse.PredictedPeriod != plain.PredictedPeriod {
			t.Fatalf("disableSpecial=%v: uniform-chain coarsening changed the period: %g vs %g",
				disableSpecial, coarse.PredictedPeriod, plain.PredictedPeriod)
		}
		if len(coarse.Alloc.Spans) != len(plain.Alloc.Spans) {
			t.Fatalf("stage count differs: %v vs %v", coarse.Alloc.Spans, plain.Alloc.Spans)
		}
		for i := range coarse.Alloc.Spans {
			if coarse.Alloc.Spans[i] != plain.Alloc.Spans[i] {
				t.Fatalf("disableSpecial=%v: stage %d: %v vs %v", disableSpecial, i,
					coarse.Alloc.Spans[i], plain.Alloc.Spans[i])
			}
			if s := coarse.Alloc.Spans[i]; s.To != c.Len() && s.To%8 != 0 {
				t.Fatalf("cut after layer %d is not a super-layer boundary", s.To)
			}
		}
	}
}

// TestPlanCoarsenBoundedDegradation: on a transformer stack with a
// heavy LM head the boundary restriction legitimately costs — the
// unrestricted optimum shaves the tail stage below a whole group. The
// coarse plan must still be valid on the original chain, cut only on
// merge boundaries, and stay within a bounded factor of the exact
// period (the economics the README documents).
func TestPlanCoarsenBoundedDegradation(t *testing.T) {
	spec, _ := nets.TransformerPreset("gpt2")
	spec.Blocks = 64
	spec.Granularity = 1
	c := nets.MustBuildTransformer(spec) // 66 layers: embed + 64 blocks + head
	pl := plat(4, 1e12, 64e9)
	opts := Options{Iterations: 8, Disc: Discretization{TP: 21, MP: 5, V: 21}, Parallel: 1}

	plain, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CoarsenGroup = 8 // 64 blocks -> 8 super-layers of 8
	coarse, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Alloc == nil || coarse.Alloc == nil {
		t.Fatalf("expected feasible plans (plain %v, coarse %v)", plain.Alloc != nil, coarse.Alloc != nil)
	}
	if coarse.Alloc.Chain != c {
		t.Fatalf("coarse plan not un-coarsened to the original chain")
	}
	if err := coarse.Alloc.Validate(); err != nil {
		t.Fatalf("un-coarsened allocation invalid: %v", err)
	}
	last := coarse.Alloc.Spans[len(coarse.Alloc.Spans)-1]
	if coarse.Alloc.Spans[0].From != 1 || last.To != c.Len() {
		t.Fatalf("un-coarsened spans do not cover the chain: %v", coarse.Alloc.Spans)
	}
	for _, s := range coarse.Alloc.Spans {
		// Layer 1 is the embedding, layers 2..65 the blocks, 66 the head:
		// interior cuts must land after embed or after a whole group of 8.
		if s.To != c.Len() && s.To != 1 && (s.To-1)%8 != 0 {
			t.Fatalf("cut after layer %d is not a super-layer boundary", s.To)
		}
	}
	if coarse.PredictedPeriod < plain.PredictedPeriod {
		t.Fatalf("coarse plan beat the unrestricted optimum: %g < %g",
			coarse.PredictedPeriod, plain.PredictedPeriod)
	}
	if coarse.PredictedPeriod > plain.PredictedPeriod*1.25 {
		t.Fatalf("coarsening cost more than 25%%: %g vs %g",
			coarse.PredictedPeriod, plain.PredictedPeriod)
	}
}

// TestPlanCoarsenFrontier: the frontier walk coarsens once up front and
// un-coarsens every segment on the way out.
func TestPlanCoarsenFrontier(t *testing.T) {
	spec, _ := nets.TransformerPreset("gpt2")
	spec.Blocks = 64
	spec.Granularity = 1
	c := nets.MustBuildTransformer(spec)
	pl := plat(4, 0, 64e9)
	mems := []float64{1e12, 4e11, 1e11}
	opts := Options{Iterations: 6, Disc: Discretization{TP: 15, MP: 4, V: 15}}

	plain, err := PlanFrontier(c, pl, mems, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CoarsenGroup = 1
	ident, err := PlanFrontier(c, pl, mems, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Segments) != len(ident.Segments) {
		t.Fatalf("identity coarsening changed segment count: %d vs %d", len(ident.Segments), len(plain.Segments))
	}
	for i := range plain.Segments {
		p, q := plain.Segments[i], ident.Segments[i]
		if p.Predicted != q.Predicted || p.Target != q.Target || p.Feasible != q.Feasible {
			t.Fatalf("segment %d differs under identity coarsening", i)
		}
	}

	opts.CoarsenGroup = 8
	coarse, err := PlanFrontier(c, pl, mems, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range coarse.Segments {
		if !s.Feasible {
			continue
		}
		if s.Result == nil || s.Result.Alloc == nil {
			t.Fatalf("segment %d: feasible without a result", i)
		}
		if s.Result.Alloc.Chain != c {
			t.Fatalf("segment %d: result not un-coarsened", i)
		}
		if err := s.Result.Alloc.Validate(); err != nil {
			t.Fatalf("segment %d: allocation invalid: %v", i, err)
		}
	}
}

// TestPlanCoarsenCacheStability: with a PlannerCache attached the
// coarsening memo must hand every call the same coarse chain pointer,
// so the second identical call is a plan-memo hit and both calls agree
// after un-coarsening.
func TestPlanCoarsenCacheStability(t *testing.T) {
	spec, _ := nets.TransformerPreset("gpt2")
	spec.Blocks = 32
	spec.Granularity = 1
	c := nets.MustBuildTransformer(spec)
	pl := plat(4, 1e12, 64e9)
	pc := NewPlannerCache()
	opts := Options{Iterations: 5, Disc: Discretization{TP: 15, MP: 4, V: 15}, Parallel: 1,
		Cache: pc, CoarsenGroup: 4}

	first, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := pc.Stats().Plans; got != 1 {
		t.Fatalf("memo holds %d plans after first call, want 1", got)
	}
	second, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := pc.Stats().Plans; got != 1 {
		t.Fatalf("second call missed the memo (%d plans)", got)
	}
	if !samePhaseOne(first, second) {
		t.Fatalf("memo hit returned a different result")
	}
	if second.Alloc == nil || second.Alloc.Chain != c {
		t.Fatalf("memo hit not un-coarsened to the original chain")
	}
	for i := range first.Alloc.Spans {
		if first.Alloc.Spans[i] != second.Alloc.Spans[i] {
			t.Fatalf("stage %d differs between cold call and memo hit", i)
		}
	}
}

// TestTransformerLongChainPlan is the transformer-era acceptance test:
// a 2050-layer op-granularity GPT-style chain must complete both
// PlanAllocation and PlanFrontier through the blocked table, with the
// resident footprint an order of magnitude under the virtual table the
// seed would have allocated.
func TestTransformerLongChainPlan(t *testing.T) {
	spec, _ := nets.TransformerPreset("gpt2")
	spec.Blocks = 256
	spec.Granularity = 8
	c := nets.MustBuildTransformer(spec)
	if c.Len() != 2050 {
		t.Fatalf("Len() = %d, want 2050", c.Len())
	}
	pl := plat(8, 2e12, 300e9)
	disc := Discretization{TP: 21, MP: 5, V: 21}
	// One probe for the plan and a two-sample frontier on one plateau:
	// at this depth each DP probe costs seconds (10^6 states times a
	// 2050-cut scan), so the test pays for exactly two solver runs; the
	// second frontier sample folds from the first's certificates.
	opts := Options{Iterations: 1, Disc: disc, Parallel: 1, Obs: obs.NewRegistry()}
	res, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alloc == nil {
		t.Fatalf("expected a feasible plan at 2TB/worker")
	}
	if err := res.Alloc.Validate(); err != nil {
		t.Fatalf("allocation invalid: %v", err)
	}
	last := res.Alloc.Spans[len(res.Alloc.Spans)-1]
	if res.Alloc.Spans[0].From != 1 || last.To != c.Len() {
		t.Fatalf("spans do not cover the chain: %v", res.Alloc.Spans)
	}
	var virt, resident, blocksRes uint64
	for _, ev := range res.Evals {
		if ev.Stats.TableVirtualBytes > virt {
			virt = ev.Stats.TableVirtualBytes
		}
		if ev.Stats.TableResidentBytes > resident {
			resident = ev.Stats.TableResidentBytes
		}
		if ev.Stats.TableBlocksResident > blocksRes {
			blocksRes = ev.Stats.TableBlocksResident
		}
	}
	if blocksRes == 0 {
		t.Fatalf("no table residency recorded")
	}
	if resident*10 > virt {
		t.Fatalf("resident %d bytes not 10x under the virtual table's %d", resident, virt)
	}
	t.Logf("virtual %d MB, resident %d MB (%.1fx), %d blocks",
		virt>>20, resident>>20, float64(virt)/float64(resident), blocksRes)

	fr, err := PlanFrontier(c, pl, []float64{2e12, 1e12}, Options{Iterations: 1, Disc: disc})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Segments) == 0 || !fr.Segments[0].Feasible {
		t.Fatalf("frontier found no feasible segment")
	}
	if err := fr.Segments[0].Result.Alloc.Validate(); err != nil {
		t.Fatalf("frontier allocation invalid: %v", err)
	}
}

// TestTransformerLongChainCoarsenPlan: the same depth at block
// granularity coarsens to a few dozen super-layers and plans in
// milliseconds; the un-coarsened plan must tile the full 2050-layer
// chain with cuts on merge boundaries.
func TestTransformerLongChainCoarsenPlan(t *testing.T) {
	spec, _ := nets.TransformerPreset("gpt2")
	spec.Blocks = 2048
	spec.Granularity = 1
	c := nets.MustBuildTransformer(spec)
	if c.Len() != 2050 {
		t.Fatalf("Len() = %d, want 2050", c.Len())
	}
	pl := plat(8, 2e12, 300e9)
	opts := Options{Iterations: 5, Disc: Discretization{TP: 21, MP: 5, V: 21}, Parallel: 1,
		CoarsenGroup: 64}

	res, err := PlanAllocation(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alloc == nil {
		t.Fatalf("expected a feasible plan")
	}
	if res.Alloc.Chain != c {
		t.Fatalf("plan not un-coarsened to the original chain")
	}
	if err := res.Alloc.Validate(); err != nil {
		t.Fatalf("allocation invalid: %v", err)
	}
	last := res.Alloc.Spans[len(res.Alloc.Spans)-1]
	if res.Alloc.Spans[0].From != 1 || last.To != c.Len() {
		t.Fatalf("spans do not cover the chain: %v", res.Alloc.Spans)
	}
}

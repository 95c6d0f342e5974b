package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"madpipe/internal/chain"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
)

// TestFrontierMatchesColdPerCell is the tentpole property: sampling a
// PlanFrontier at every grid memory must be bit-identical to a cold
// per-cell bisection at that memory — same probe schedule, periods and
// allocation — in both planner modes, while the frontier store actually
// answers probes somewhere (the equivalence alone would also pass with
// the store disabled).
func TestFrontierMatchesColdPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	disc := Discretization{TP: 21, MP: 5, V: 15}
	frontierSaved, replays, dpRun := 0, 0, 0
	for trial := 0; trial < 6; trial++ {
		c := chain.Random(rng, 5+rng.Intn(8), chain.DefaultRandomOptions())
		for _, special := range []bool{false, true} {
			for _, pw := range []int{2, 4, 6, 8} {
				cache := NewPlannerCache()
				opts := Options{Parallel: 1, DisableSpecial: special, Disc: disc, Cache: cache}
				fr, err := PlanFrontier(c, plat(pw, 1, 12e9), hintMemsDesc, opts)
				if err != nil {
					t.Fatalf("trial %d special=%v P=%d: PlanFrontier: %v", trial, special, pw, err)
				}
				frontierSaved += fr.FrontierSaved
				replays += fr.Replays
				dpRun += fr.Probes - fr.ProbesSaved
				for _, mem := range hintMemsDesc {
					pl := plat(pw, mem, 12e9)
					cold, cerr := PlanAllocation(c, pl, Options{Parallel: 1, DisableSpecial: special, Disc: disc})
					seg := fr.At(mem)
					if seg == nil {
						t.Fatalf("trial %d special=%v P=%d M=%g: no segment covers a sampled memory", trial, special, pw, mem)
					}
					if cerr != nil {
						if !errors.Is(cerr, platform.ErrInfeasible) {
							t.Fatalf("trial %d: unexpected cold error %v", trial, cerr)
						}
						if seg.Feasible {
							t.Fatalf("trial %d special=%v P=%d M=%g: frontier feasible, cold infeasible", trial, special, pw, mem)
						}
						continue
					}
					if !seg.Feasible {
						t.Fatalf("trial %d special=%v P=%d M=%g: frontier infeasible, cold feasible", trial, special, pw, mem)
					}
					// The memoized per-sample result is the planner output a
					// sweep consumer sees; it must replay the cold search
					// bit for bit.
					mopts := opts
					mopts = mopts.withDefaults()
					mopts.Parallel = 1
					key := planKeyFor(c, pl, mopts)
					memo, ok := cache.getPlan(key)
					if !ok {
						t.Fatalf("trial %d special=%v P=%d M=%g: frontier left no memo entry", trial, special, pw, mem)
					}
					comparePhaseOne(t, "frontier-sample", memo, cold)
					if memo.Alloc.Plat.Memory != mem {
						t.Fatalf("sampled allocation pinned to wrong memory: %g != %g", memo.Alloc.Plat.Memory, mem)
					}
					// The segment's plateau values match the cold search too.
					if seg.Predicted != cold.PredictedPeriod || seg.Target != cold.TargetPeriod {
						t.Fatalf("trial %d special=%v P=%d M=%g: segment (%g, %g) != cold (%g, %g)",
							trial, special, pw, mem, seg.Predicted, seg.Target, cold.PredictedPeriod, cold.TargetPeriod)
					}
				}
				cache.Release(nil)
			}
		}
	}
	if frontierSaved == 0 {
		t.Fatalf("no probes were answered by the frontier store anywhere on the grid; the frontier machinery is dead")
	}
	if replays >= dpRun {
		t.Fatalf("replays (%d) >= total DP probes (%d): the seed never dominated", replays, dpRun)
	}
}

// TestFrontierBreakpoints pins the shape contract of the breakpoint
// list: segments are sorted descending, tile every sample with no
// overlap, consecutive segments differ in outcome (deduplication), and
// At answers every sample and rejects memories outside the walked
// range.
func TestFrontierBreakpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	disc := Discretization{TP: 21, MP: 5, V: 15}
	for trial := 0; trial < 8; trial++ {
		c := chain.Random(rng, 5+rng.Intn(8), chain.DefaultRandomOptions())
		fr, err := PlanFrontier(c, plat(4, 1, 12e9), hintMemsDesc, Options{Parallel: 1, Disc: disc})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(fr.Segments) == 0 || fr.Breakpoints() != len(fr.Segments) {
			t.Fatalf("trial %d: %d segments, Breakpoints()=%d", trial, len(fr.Segments), fr.Breakpoints())
		}
		if fr.Segments[0].MemHi != hintMemsDesc[0] || fr.Segments[len(fr.Segments)-1].MemLo != hintMemsDesc[len(hintMemsDesc)-1] {
			t.Fatalf("trial %d: segments do not span the sampled range", trial)
		}
		for i, s := range fr.Segments {
			if s.MemLo > s.MemHi {
				t.Fatalf("trial %d: segment %d inverted [%g, %g]", trial, i, s.MemLo, s.MemHi)
			}
			if s.Feasible && !(s.CertLo <= s.MemHi) {
				t.Fatalf("trial %d: segment %d certificate floor %g above its top sample %g", trial, i, s.CertLo, s.MemHi)
			}
			if !s.Feasible && s.CertLo != 0 {
				t.Fatalf("trial %d: infeasible segment %d not certified to 0 (got %g)", trial, i, s.CertLo)
			}
			if i > 0 {
				prev := fr.Segments[i-1]
				if s.MemHi >= prev.MemLo {
					t.Fatalf("trial %d: segments %d/%d overlap or are unsorted", trial, i-1, i)
				}
				if sameOutcome(prev.Result, s.Result) {
					t.Fatalf("trial %d: segments %d/%d share an outcome; merge missed", trial, i-1, i)
				}
			}
		}
		// Every sample is covered by exactly the segment that owns it.
		for _, m := range hintMemsDesc {
			seg := fr.At(m)
			if seg == nil || m < seg.MemLo || m > seg.MemHi {
				t.Fatalf("trial %d: At(%g) returned wrong segment %+v", trial, m, seg)
			}
		}
		if fr.At(hintMemsDesc[0]*2) != nil {
			t.Fatalf("trial %d: At above the walked range did not return nil", trial)
		}
		if fr.At(hintMemsDesc[len(hintMemsDesc)-1]/2) != nil {
			// Below the lowest sample only an infeasible tail (certified to
			// 0) may answer.
			if seg := fr.At(hintMemsDesc[len(hintMemsDesc)-1] / 2); seg.Feasible {
				t.Fatalf("trial %d: feasible answer below the walked range", trial)
			}
		}
	}
}

// TestFrontierObsCounters: a frontier walk with a registry attached must
// expose its economics through the frontier_* counters, and the counters
// must never change planner answers (the registry-less walk returns the
// same segments).
func TestFrontierObsCounters(t *testing.T) {
	c := chain.Uniform(10, 1e-3, 2e-3, 2e8, 1e8)
	disc := Discretization{TP: 21, MP: 5, V: 15}
	reg := obs.NewRegistry()
	on, err := PlanFrontier(c, plat(4, 1, 12e9), hintMemsDesc, Options{Parallel: 1, Disc: disc, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	off, err := PlanFrontier(c, plat(4, 1, 12e9), hintMemsDesc, Options{Parallel: 1, Disc: disc})
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Segments) != len(off.Segments) {
		t.Fatalf("observability changed the frontier: %d segments vs %d", len(on.Segments), len(off.Segments))
	}
	for i := range on.Segments {
		a, b := on.Segments[i], off.Segments[i]
		if a.MemHi != b.MemHi || a.MemLo != b.MemLo || a.Predicted != b.Predicted || a.Target != b.Target {
			t.Fatalf("observability changed segment %d: %+v vs %+v", i, a, b)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["frontier_breakpoints"] != uint64(len(on.Segments)) {
		t.Errorf("frontier_breakpoints = %d, want %d", snap.Counters["frontier_breakpoints"], len(on.Segments))
	}
	if snap.Counters["frontier_replays"] != uint64(on.Replays) {
		t.Errorf("frontier_replays = %d, want %d", snap.Counters["frontier_replays"], on.Replays)
	}
	if snap.Counters["frontier_probes_saved"] != uint64(on.FrontierSaved) {
		t.Errorf("frontier_probes_saved = %d, want %d", snap.Counters["frontier_probes_saved"], on.FrontierSaved)
	}
	if on.FrontierSaved == 0 {
		t.Errorf("uniform chain frontier saved no probes; store never fired")
	}
}

// TestBracketCandidatesDegenerate pins the invariants bracketCandidates
// documents: candidates stay inside [lb, ub], a degenerate bracket
// (lb == ub) yields lb exactly for every k, a one-probe round of a wide
// fan is the incremental midpoint while fan 1 bisects at (lb+ub)/2, and
// the first round anchors at lb.
func TestBracketCandidatesDegenerate(t *testing.T) {
	lb := 0.123456789
	for _, k := range []int{1, 2, 3, 4} {
		for _, first := range []bool{true, false} {
			cands := bracketCandidates(nil, lb, lb, k, first, false)
			for _, cand := range cands {
				if cand != lb {
					t.Fatalf("degenerate bracket k=%d first=%v: candidate %g != lb %g", k, first, cand, lb)
				}
			}
		}
	}
	// ub < lb (a fold can push lb past ub on the last probe) clamps to
	// the degenerate case rather than producing inverted candidates.
	for _, cand := range bracketCandidates(nil, 2.0, 1.0, 3, false, false) {
		if cand != 2.0 {
			t.Fatalf("inverted bracket: candidate %g != clamped lb", cand)
		}
	}
	lo, hi := 1.0, 2.5
	if mid := bracketCandidates(nil, lo, hi, 1, false, false); len(mid) != 1 || mid[0] != lo+(hi-lo)/2 {
		t.Fatalf("k=1 midpoint = %v, want %g", mid, lo+(hi-lo)/2)
	}
	if mid := bracketCandidates(nil, lo, hi, 1, false, true); len(mid) != 1 || mid[0] != (lo+hi)/2 {
		t.Fatalf("bisection midpoint = %v, want %g", mid, (lo+hi)/2)
	}
	for _, bisect := range []bool{false, true} {
		if firstRound := bracketCandidates(nil, lo, hi, 1, true, bisect); len(firstRound) != 1 || firstRound[0] != lo {
			t.Fatalf("bisect=%v: first round does not anchor at lb: %v", bisect, firstRound)
		}
	}
	if firstRound := bracketCandidates(nil, lo, hi, 4, true, false); len(firstRound) != 4 || firstRound[0] != lo {
		t.Fatalf("first round does not anchor at lb: %v", firstRound)
	}
	for _, k := range []int{1, 2, 3, 4} {
		for _, cand := range bracketCandidates(nil, lo, hi, k, false, false) {
			if cand < lo || cand > hi || math.IsNaN(cand) {
				t.Fatalf("k=%d: candidate %g escapes [%g, %g]", k, cand, lo, hi)
			}
		}
	}
}

// TestFrontierProbeClaimsReplay checks each frontier-mode probe's own
// memory claim on one certificate-armed table, probe by probe: a probe
// that adopted a cross-probe certificate claims exactly the limit it ran
// at, and every other probe replays at the bottom of its claim — a
// cold, certificate-free DP at MLo returns the same period, spans and
// processors. The targets revisit the search range in both directions,
// so later probes adopt death certificates of earlier ones.
func TestFrontierProbeClaimsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	disc := Discretization{TP: 9, MP: 5, V: 9}
	var adopted, replayed int
	for trial := 0; trial < 12; trial++ {
		c := chain.Random(rng, 4+rng.Intn(8), chain.DefaultRandomOptions())
		pl := plat(3+rng.Intn(3), 2e9+rng.Float64()*6e9, 12e9)
		lo, hi := c.TotalU()/float64(pl.Workers), c.TotalU()+c.TotalCommTimeAlphaBeta(pl.Latency, pl.Bandwidth)
		for _, contig := range []bool{false, true} {
			tab := new(dpTable)
			tab.certArm(pl.Memory)
			cfg := dpConfig{disc: disc, disableSpecial: contig, obs: obs.NewRegistry(), mtrack: true}
			for i := 0; i < 10; i++ {
				that := lo + (hi-lo)*rng.Float64()
				res, err := runDPWith(tab, c, pl, that, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.StatesCertPruned > 0 {
					adopted++
					if res.MLo != pl.Memory || res.MHi != math.Nextafter(pl.Memory, inf) {
						t.Fatalf("trial %d contiguous=%v T̂=%g: adopting probe claims [%g, %g), want [%g, nextafter)",
							trial, contig, that, res.MLo, res.MHi, pl.Memory)
					}
					continue
				}
				if res.MLo > pl.Memory || res.MHi <= pl.Memory {
					t.Fatalf("trial %d T̂=%g: claim [%g, %g) excludes the run's limit %g", trial, that, res.MLo, res.MHi, pl.Memory)
				}
				if res.MLo == pl.Memory {
					continue
				}
				replayed++
				// runDPWith, not DP: a probe whose every memory check failed
				// claims down to 0 bytes, a limit DP's platform check refuses.
				at := pl
				at.Memory = res.MLo
				cold, err := runDPWith(new(dpTable), c, at, that, dpConfig{disc: disc, disableSpecial: contig})
				if err != nil {
					t.Fatal(err)
				}
				if cold.Period != res.Period || (cold.Alloc == nil) != (res.Alloc == nil) {
					t.Fatalf("trial %d contiguous=%v T̂=%g: probe at %g returned %g, cold DP at MLo=%g returned %g",
						trial, contig, that, pl.Memory, res.Period, res.MLo, cold.Period)
				}
				if res.Alloc == nil {
					continue
				}
				if len(cold.Alloc.Spans) != len(res.Alloc.Spans) {
					t.Fatalf("trial %d T̂=%g: %d stages at MLo, %d at the probe's limit", trial, that, len(cold.Alloc.Spans), len(res.Alloc.Spans))
				}
				for j := range res.Alloc.Spans {
					if cold.Alloc.Spans[j] != res.Alloc.Spans[j] || cold.Alloc.Procs[j] != res.Alloc.Procs[j] {
						t.Fatalf("trial %d T̂=%g: stage %d differs at MLo=%g", trial, that, j, res.MLo)
					}
				}
			}
		}
	}
	if adopted == 0 || replayed == 0 {
		t.Fatalf("test setup: %d adopting probes, %d replayed claims; need both", adopted, replayed)
	}
	t.Logf("%d adopting probes, %d claims replayed at MLo", adopted, replayed)
}

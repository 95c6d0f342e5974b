package core

import (
	"fmt"
	"math"

	"madpipe/internal/chain"
	"madpipe/internal/partition"
	"madpipe/internal/platform"
)

// This file keeps the original recursive, map-memoized formulation of
// MadPipe-DP as the executable reference: TestDenseMatchesMapDP,
// TestBlockedMatchesMapAtWidths, TestIndexWidthBoundaries and
// FuzzTableMatchesMapDP assert that the table solver returns
// bit-identical periods, allocations and (wherever normals <= layers)
// state counts. It runs the textbook ⊕ and group-count arithmetic
// (oplus, groups) rather than the solver's fused cutDelay. It mirrors
// the solver's cutoffs as it mirrors the load floors: a recursion
// starts its incumbent at the caller's, a memo entry that adopted no
// cut keeps that cutoff as a lower bound, and States counts computes,
// so a reopened state counts again.

// oplus is the ⊕ operator of Section 4.2.2: advance a delay x by a work
// amount y, snapping x up to the next multiple of T̂ when the addition
// crosses a group boundary. The solver evaluates it through cutDelay.
func (r *dpRun) oplus(x, y float64) float64 {
	if r.ceilT(x+y) == r.ceilT(x) {
		return x + y
	}
	return r.that*r.ceilT(x) + y
}

// groups returns g(k,l,V) = ceil((V + U(k,l)) / T̂), the number of
// activation copies a stage [k,l] must retain when the downstream delay
// is V.
func (r *dpRun) groups(k, l int, v float64) int {
	return r.groupsU(v, r.c.U(k, l))
}

// mapKey packs a DP state into a uint64: l and p get 16 bits each (up
// to MaxDPIndex), and the grid indices are bounded by
// Discretization.validate (t_P, m_P ≤ 256 values) so 8+8+16 bits
// suffice.
func mapKey(l, p, itP, imP, iV int) uint64 {
	return uint64(l) | uint64(p)<<16 | uint64(itP)<<32 | uint64(imP)<<40 | uint64(iV)<<48
}

type mapRun struct {
	dpRun
	memo     map[uint64]dpEntry
	computes int
}

// solveRec returns T(l, p, t_P, m_P, V) for a caller whose incumbent is
// cutoff: exact when below it, otherwise a lower bound at least cutoff.
// A bound entry (k < 0, not special, finite) answers only callers it
// still prunes; any other caller recomputes the state.
func (r *mapRun) solveRec(l, p, itP, imP, iV int, cutoff float64) float64 {
	tP := float64(itP) * r.stepT
	if l == 0 {
		return tP
	}
	k := mapKey(l, p, itP, imP, iV)
	if e, ok := r.memo[k]; ok && (e.k >= 0 || e.special || e.period >= cutoff) {
		return e.period
	}
	e := r.compute(l, p, itP, imP, iV, cutoff)
	r.memo[k] = e
	r.computes++
	return e.period
}

func (r *mapRun) compute(l, p, itP, imP, iV int, cutoff float64) dpEntry {
	tP := float64(itP) * r.stepT
	mP := float64(imP) * r.stepM
	v := float64(iV) * r.stepV

	if p == 0 {
		return r.baseCase(l, tP, mP, v)
	}

	best := dpEntry{period: cutoff, k: -1}
	invP, invP1 := 1/float64(p), 1/float64(p+1)
	for k := l; k >= 1; k-- {
		u := r.uTo[l] - r.uTo[k-1]
		if u >= best.period {
			// Both branches cost at least U(k,l), which only grows as k
			// decreases.
			break
		}
		g := r.groupsU(v, u)
		cLeft := r.cLeft[k]
		vNext := r.oplus(r.oplus(v, u), cLeft)
		iVN := roundUp(vNext, r.stepV, r.nV)

		// Assign stage [k,l] to a normal processor. The child is consulted
		// only when the branch can still win: the candidate is
		// max(u, cLeft, sub) and the incumbent only improves on a strict
		// decrease, so cLeft >= best (u < best is the monotone check
		// above) or a child floor (childFloor) at or above best decides
		// the comparison without descending. The table solver applies the
		// identical skips, keeping traversals aligned.
		if r.stageMem(k, l, g) <= r.mem && cLeft < best.period && r.childFloor(k-1, tP, invP) < best.period {
			sub := r.solveRec(k-1, p-1, itP, imP, iVN, best.period)
			cand := math.Max(u, math.Max(cLeft, sub))
			if cand < best.period {
				best = dpEntry{period: cand, k: int32(k)}
			}
		}

		// Assign stage [k,l] to the special processor. Its memory is
		// under-estimated with g-1 copies (Section 4.2.1); the scheduling
		// phase repairs the difference. Same early decisions: the
		// candidate is max(tNext, cLeft, sub), so tNext, cLeft or the
		// child floor at or above the incumbent settles the cut without
		// descending.
		if !r.disableSpecial {
			mNext := mP + r.stageMem(k, l, g-1)
			if mNext <= r.mem {
				itPN := roundUp(tP+u, r.stepT, r.nT)
				tNext := float64(itPN) * r.stepT
				if tNext >= best.period || cLeft >= best.period || r.childFloor(k-1, tNext, invP1) >= best.period {
					continue
				}
				imPN := roundUp(mNext, r.stepM, r.nM)
				sub := r.solveRec(k-1, p, itPN, imPN, iVN, best.period)
				cand := math.Max(tNext, math.Max(cLeft, sub))
				if cand < best.period {
					best = dpEntry{period: cand, k: int32(k), special: true}
				}
			}
		}
	}
	return best
}

// runDPMap executes the map-based MadPipe-DP on the unclamped normal
// processor count. It rejects shapes past the mapKey packing limit
// instead of silently aliasing states.
func runDPMap(c *chain.Chain, plat platform.Platform, that float64, disc Discretization, disableSpecial bool, weights chain.WeightPolicy) (*DPResult, error) {
	if that <= 0 {
		return nil, fmt.Errorf("core: target period must be positive, got %g", that)
	}
	if err := disc.validate(); err != nil {
		return nil, err
	}
	normals := plat.Workers - 1
	if disableSpecial {
		normals = plat.Workers
	}
	if c.Len() > MaxDPIndex || normals > MaxDPIndex {
		return nil, fmt.Errorf("core: chain length %d or processor count %d exceeds the map key's packing limit %d",
			c.Len(), normals, MaxDPIndex)
	}
	r := newMapRun(c, plat, that, disc, disableSpecial, weights)
	period := r.solveRec(c.Len(), normals, 0, 0, 0, inf)
	res := &DPResult{Period: period, States: r.computes}
	if period == inf {
		return res, nil
	}
	alloc, err := r.reconstructMap(normals)
	if err != nil {
		return nil, err
	}
	res.Alloc = alloc
	return res, nil
}

// newMapRun prepares a map-memoized run: grid steps, hoisted prefix
// slices (cached on a private table the run never otherwise touches)
// and an empty memo.
func newMapRun(c *chain.Chain, plat platform.Platform, that float64, disc Discretization, disableSpecial bool, weights chain.WeightPolicy) *mapRun {
	totalU := c.TotalU()
	r := &mapRun{
		dpRun: dpRun{
			c: c, plat: plat, that: that,
			disableSpecial: disableSpecial,
			weights:        weights,
			nT:             disc.TP, nM: disc.MP, nV: disc.V,
			stepT: totalU / float64(disc.TP-1),
			stepM: plat.Memory / float64(disc.MP-1),
			stepV: (totalU + c.TotalCommTimeAlphaBeta(plat.Latency, plat.Bandwidth)) / float64(disc.V-1),
			tab:   new(dpTable),
		},
		memo: make(map[uint64]dpEntry),
	}
	r.init()
	return r
}

// reconstructMap is reconstruct over the map memo.
func (r *mapRun) reconstructMap(normals int) (*partition.Allocation, error) {
	type rev struct {
		span    chain.Span
		special bool
	}
	var stages []rev

	l, p, itP, imP, iV := r.c.Len(), normals, 0, 0, 0
	for l > 0 {
		if p == 0 {
			stages = append(stages, rev{span: chain.Span{From: 1, To: l}, special: true})
			break
		}
		e, ok := r.memo[mapKey(l, p, itP, imP, iV)]
		if !ok || e.period == inf {
			return nil, fmt.Errorf("core: reconstruction reached unexplored state (l=%d p=%d)", l, p)
		}
		if e.k < 0 {
			return nil, fmt.Errorf("core: reconstruction hit base entry with p=%d", p)
		}
		k := int(e.k)
		tP := float64(itP) * r.stepT
		mP := float64(imP) * r.stepM
		v := float64(iV) * r.stepV
		u := r.uTo[l] - r.uTo[k-1]
		g := r.groupsU(v, u)
		vNext := r.oplus(r.oplus(v, u), r.cLeft[k])
		iV = roundUp(vNext, r.stepV, r.nV)
		stages = append(stages, rev{span: chain.Span{From: k, To: l}, special: e.special})
		if e.special {
			itP = roundUp(tP+u, r.stepT, r.nT)
			imP = roundUp(mP+r.stageMem(k, l, g-1), r.stepM, r.nM)
		} else {
			p--
		}
		l = k - 1
	}

	n := len(stages)
	spans := make([]chain.Span, n)
	procs := make([]int, n)
	normal := 0
	for i := range stages {
		s := stages[n-1-i]
		spans[i] = s.span
		if s.special {
			procs[i] = r.plat.Workers - 1
		} else {
			procs[i] = normal
			normal++
		}
	}
	if normal > normals {
		return nil, fmt.Errorf("core: reconstruction used %d normal processors, budget %d", normal, normals)
	}
	a := &partition.Allocation{Chain: r.c, Plat: r.plat, Spans: spans, Procs: procs, Weights: r.weights}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: reconstructed allocation invalid: %w", err)
	}
	return a, nil
}

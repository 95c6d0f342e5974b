package core

import "madpipe/internal/chain"

// Monotone cut-point tables. For a fixed cut column (l, k) — stage [k,l]
// closing a prefix of length l — everything the DP's inner loop computes
// per k except the candidate maxima depends only on the delay index iV:
//
//	g[iV]    = ceil((V + U(k,l)) / T̂), the in-flight group count
//	ivn[iV]  = grid index of (V ⊕ U(k,l)) ⊕ C(k-1), the child delay
//	smem[iV] = M(k,l,g-1), the special-branch stage memory
//
// and the normal-branch memory check M(k,l,g) <= mem reduces to
// g[iV] <= gmax because stage memory is non-decreasing in g (weight
// copies and retained activations only grow with the group count). A
// column is built once per probe with exactly the inline arm's
// expressions (cutDelay / roundUp / stageMem), so every lookup is
// bit-identical to recomputing — the DP's traversal, values and
// reconstruction choices are unchanged, only cheaper. Feasible k ranges
// shrink monotonically along the grid axes (g is non-decreasing in iV,
// so the set {k : g[iV] <= gmax(l,k)} only shrinks as iV grows), which
// is what makes the single scalar gmax a complete description of the
// normal branch's memory feasibility.
//
// gmax itself does not depend on T̂ at all, so it is cached across the
// probes of one Algorithm 1 lease (gmaxKey identifies the inputs it is
// derived from) while the T̂-dependent arrays are rebuilt per probe.

// colMaxL bounds the chain length for which per-(l,k) columns are kept;
// beyond it the quadratic column directory would dominate the table
// itself and the solver computes cut scalars inline (bit-identical
// either way).
const colMaxL = 1024

// colMaxG bounds the group counts the column arm may hold: colEnt.g and
// the gmax thresholds are int32, and a count past their range would wrap
// and flip the normal branch's memory check. A probe whose largest group
// count (the grid-top delay plus the whole chain's work, over T̂) could
// reach colMaxG computes its cut scalars inline instead, bit-identical
// either way; only a target period around a billionth of the chain's
// work and delay gets there.
const colMaxG = 1 << 30

// colEnt is one filled column entry, 16 bytes: the special-branch stage
// memory, the group count (0 = not filled yet; real counts are >= 1) and
// the child delay index.
type colEnt struct {
	smem float64
	g    int32
	ivn  int32
}

type gmaxKey struct {
	c       *chain.Chain
	mem     float64
	weights chain.WeightPolicy
}

type colCache struct {
	on    bool
	lplus int // L+1; column (l,k) lives at directory slot l*lplus+k
	nV    int
	stamp uint32 // probe validity: column built iff built[ci] == stamp

	// dir[ci] packs the probe stamp (high 32 bits) with the column's
	// slab ordinal (low 32), so the hot loop's open-column check and the
	// ordinal come from a single load.
	dir []uint64

	// Per-ordinal entry slab, nV entries per column. Each entry is one
	// 16-byte colEnt, so the hot loop pays a single cache access per
	// (l, k, iV) touch.
	ent  []colEnt
	gmax []int32 // per-ordinal scalar
	n    int     // ordinals handed out this probe

	// Cross-probe gmax memo (T̂-independent), validated by key+epoch.
	key        gmaxKey
	gmaxEpoch  uint32
	gmaxSeen   []uint32
	gmaxCached []int32
}

// reset prepares the cache for one probe. It is a no-op (cache disabled)
// when the chain is too long for the quadratic directory or gTop, the
// largest group count a cut can ask for, reaches colMaxG.
func (cc *colCache) reset(L, nV int, gTop float64, key gmaxKey) {
	cc.on = L <= colMaxL && gTop < colMaxG
	if !cc.on {
		return
	}
	dirN := (L + 1) * (L + 1)
	if cap(cc.dir) < dirN {
		cc.dir = make([]uint64, dirN)
		cc.gmaxSeen = make([]uint32, dirN)
		cc.gmaxCached = make([]int32, dirN)
		cc.stamp = 0
		cc.gmaxEpoch = 0
	}
	cc.dir = cc.dir[:dirN]
	cc.gmaxSeen = cc.gmaxSeen[:dirN]
	cc.gmaxCached = cc.gmaxCached[:dirN]
	if cc.lplus != L+1 || cc.nV != nV {
		// Directory indices changed meaning: invalidate both generations.
		// Clears cover the full capacity — stale stamps beyond the
		// current len would alias if a later lease regrows the slice.
		cc.stamp = 0
		cc.gmaxEpoch = 0
		clear(cc.dir[:cap(cc.dir)])
		clear(cc.gmaxSeen[:cap(cc.gmaxSeen)])
	}
	cc.lplus, cc.nV = L+1, nV
	cc.n = 0
	cc.stamp++
	if cc.stamp == 0 { // wrapped: stale entries could alias
		clear(cc.dir[:cap(cc.dir)])
		cc.stamp = 1
	}
	if key != cc.key {
		cc.key = key
		cc.gmaxEpoch++
		if cc.gmaxEpoch == 0 {
			clear(cc.gmaxSeen[:cap(cc.gmaxSeen)])
			cc.gmaxEpoch = 1
		}
	}
}

// col returns the slab base (ordinal * nV) and gmax of column (l, k),
// opening the column if this probe has not touched it yet. Opening a
// column computes its gmax and zeroes its entry slab; the entries
// themselves are filled lazily, one delay index at a time, by
// fillEnt — the DP's traversal is sparse (a few percent of the grid),
// so eager nV-wide builds would cost more than the DP itself.
func (r *dpRun) col(l, k int) (int, int32) {
	cc := &r.tab.cols
	ci := l*cc.lplus + k
	if d := cc.dir[ci]; uint32(d>>32) == cc.stamp {
		o := int(uint32(d))
		return o * cc.nV, cc.gmax[o]
	}
	return r.openCol(l, k, ci)
}

// fillEnt computes a column entry on its first touch (g == 0 is the
// not-yet-filled sentinel; real group counts are >= 1). Kept out of the
// callers' hot loops so the filled-entry fast path stays inlineable.
func (r *dpRun) fillEnt(l, k, iV int, e *colEnt) {
	if st := r.stats; st != nil {
		st.ColumnEntryFills++
	}
	u := r.uTo[l] - r.uTo[k-1]
	v := float64(iV) * r.stepV
	cw, vNext := r.cutDelay(v, r.ceilT(v), u, r.cLeft[k])
	g := groupCount(cw)
	e.g = int32(g)
	e.ivn = int32(roundUp(vNext, r.stepV, r.nV))
	if !r.disableSpecial {
		e.smem = r.stageMem(k, l, g-1)
	}
}

func (r *dpRun) openCol(l, k, ci int) (int, int32) {
	if st := r.stats; st != nil {
		st.ColumnsOpened++
	}
	cc := &r.tab.cols
	o := cc.n
	cc.n++
	base := o * cc.nV
	need := cc.n * cc.nV
	if cap(cc.ent) < need {
		out := make([]colEnt, need, need+need/2)
		copy(out, cc.ent)
		cc.ent = out
	}
	cc.ent = cc.ent[:need]
	if cap(cc.gmax) < cc.n {
		cc.gmax = grow32(cc.gmax, cc.n)
	}
	cc.gmax = cc.gmax[:cc.n]
	clear(cc.ent[base : base+cc.nV]) // g == 0: entry not filled yet

	// The grid-top delay maximizes the group count (g is monotone in V),
	// so it caps the gmax bisection for every entry this probe can fill.
	u := r.uTo[l] - r.uTo[k-1]
	gHi := r.groupsU(float64(cc.nV-1)*r.stepV, u)
	gm := cc.gmaxFor(r, l, k, ci, gHi)
	cc.gmax[o] = gm
	cc.dir[ci] = uint64(cc.stamp)<<32 | uint64(uint32(o))
	return base, gm
}

// gmaxFor returns the largest group count g (capped at gHi, the largest
// value any grid cell can ask for) with M(k,l,g) <= mem, or 0 when even
// one group does not fit. The threshold is found by bisection over the
// reference stageMem — never by solving the linear memory formula, whose
// rounding can disagree with the direct evaluation at the boundary by
// one ulp — so the comparison g <= gmax is exactly equivalent to the
// reference check stageMem(k,l,g) <= mem for every g the DP compares.
func (cc *colCache) gmaxFor(r *dpRun, l, k, ci, gHi int) int32 {
	if cc.gmaxSeen[ci] == cc.gmaxEpoch {
		// Memo encoding: v >= 0 is an exact threshold (stageMem(v+1) is
		// known not to fit); v < 0 means "everything up to ^v fits" — the
		// search was capped there by an earlier probe's smaller g range,
		// so it only resolves this probe if gHi stays within the cap.
		if v := cc.gmaxCached[ci]; v >= 0 {
			if st := r.stats; st != nil {
				st.GmaxMemoHits++
			}
			return v
		} else if c := ^v; int(c) >= gHi {
			if st := r.stats; st != nil {
				st.GmaxMemoHits++
			}
			return c
		}
	}
	if st := r.stats; st != nil {
		st.GmaxComputed++
	}
	var memo, gm int32
	switch {
	case r.stageMem(k, l, gHi) <= r.mem:
		gm = int32(gHi)
		memo = ^gm
	case r.stageMem(k, l, 1) > r.mem:
		gm, memo = 0, 0
	default:
		lo, hi := 1, gHi // stageMem(lo) fits, stageMem(hi) does not
		for hi-lo > 1 {
			mid := int(uint(lo+hi) >> 1)
			if r.stageMem(k, l, mid) <= r.mem {
				lo = mid
			} else {
				hi = mid
			}
		}
		gm = int32(lo)
		memo = gm
	}
	cc.gmaxSeen[ci] = cc.gmaxEpoch
	cc.gmaxCached[ci] = memo
	return gm
}

func grow32(s []int32, n int) []int32 {
	out := make([]int32, n, n+n/2)
	copy(out, s)
	return out
}

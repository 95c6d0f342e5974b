// Package core implements MadPipe (Sections 4.2 and 4.3): a dynamic
// program that builds a non-contiguous allocation — every normal
// processor holds one stage, one special processor may hold any number of
// stages — with memory needs estimated through the 1F1B* group counts,
// followed by a target-period binary search (Algorithm 1) and a
// scheduling phase that turns the allocation into a valid periodic
// pattern.
//
// # Performance
//
// The DP T(l, p, t_P, m_P, V) is the planner's hot path: Algorithm 1
// re-runs it at every binary-search probe and the experiment sweeps
// re-run Algorithm 1 across dozens of configurations. The implementation
// therefore evaluates the recurrence with an explicit work stack over a
// packed, blocked table (see table.go) instead of recursing through a
// hash-map memo, and hoists every per-(k,l) invariant — prefix compute
// times, link busy times, the components of the stage-memory formula —
// into flat slices built once per dpRun. The table is the only solver:
// a shape past its bounds (MaxDPIndex layers or normal processors, or
// 2^33 virtual states) is rejected with ErrShapeTooLarge before any
// table is sized. The recursive map-memoized formulation survives as the
// tests' reference (dp_map_test.go).
//
// # Concurrency invariants
//
// The planner is safe for concurrent use under the following rules,
// relied upon by the concurrent probes of PlanAllocation and the
// parallel sweeps in internal/expt:
//
//   - chain.Chain and platform.Platform are immutable; any number of
//     goroutines may plan over the same chain concurrently.
//   - A dpRun (and the table it leases from the arena) belongs to
//     exactly one goroutine from acquire to release. Tables are never
//     shared between concurrent probes; cross-probe reuse happens only
//     sequentially on the same lease via the epoch stamp.
//   - Reconstructed allocations are fresh per run and carry no pointers
//     into pooled state.
//
// Options.Parallel is Algorithm 1's probe fan-out: 0 means auto
// (GOMAXPROCS), 1 is the paper's sequential bisection, and larger
// budgets run up to four bracket probes per round, each on its own
// table lease. Every probe runs the same sequential solver, so each DP
// probe is bit-identical across settings; the probe schedule depends on
// the fan, so planner-level outputs are pinned per fan (see
// Options.Parallel).
package core

import (
	"fmt"
	"math"

	"madpipe/internal/chain"
	"madpipe/internal/obs"
	"madpipe/internal/partition"
	"madpipe/internal/platform"
)

// Discretization controls the grids used for the continuous DP state
// variables t_P (special-processor load), m_P (special-processor memory)
// and V (forward-to-backward delay). The paper uses 101, 11 and 51
// equally spaced values respectively.
type Discretization struct {
	TP int
	MP int
	V  int
}

// DefaultDiscretization returns the paper's grid sizes.
func DefaultDiscretization() Discretization {
	return Discretization{TP: 101, MP: 11, V: 51}
}

// Validate reports whether the grid sizes are inside the supported
// ranges. Exported so API layers (internal/serve) can reject a bad
// request at admission instead of surfacing a planner error mid-job.
func (d Discretization) Validate() error { return d.validate() }

func (d Discretization) validate() error {
	if d.TP < 2 || d.TP > 256 || d.MP < 2 || d.MP > 64 || d.V < 2 || d.V > 256 {
		return fmt.Errorf("core: discretization out of range: %+v", d)
	}
	return nil
}

const inf = math.MaxFloat64

// max3 is max(a, max(b, c)) by direct comparison. Periods are positive
// and never NaN, so this returns the same float as the math.Max chain
// of the recurrence's textbook form, without the archMax call the
// compiler won't inline.
func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// dpRun holds the state of one MadPipe-DP invocation for a fixed target
// period T̂. A dpRun (and its table) is used by a single goroutine.
type dpRun struct {
	c    *chain.Chain
	plat platform.Platform
	that float64 // target period T̂

	disableSpecial bool
	weights        chain.WeightPolicy

	stepT, stepM, stepV float64
	nT, nM, nV          int

	// Hoisted invariants, all indexed like the chain's prefix sums so
	// that the hot loop never leaves this struct:
	//
	//	uTo[i]    = U(1,i)             (uTo[0] = 0)
	//	sumWTo[i] = sum of W over 1..i
	//	asTo[i]   = sum of AStore over 1..i
	//	twoA[i]   = 2 * A(i)
	//	cLeft[k]  = C(k-1), the link busy time left of layer k
	uTo, sumWTo, asTo, twoA, cLeft []float64
	wFixed, wPerBatch              float64
	mem                            float64
	L                              int

	// floorSlack is the per-layer slack of the work-conservation floor
	// (see childFloor), set by init.
	floorSlack float64

	tab   *dpTable
	stack []dpFrame

	// Observability. stats points at statsBuf when Options.Obs is set
	// and is nil otherwise, so every instrumented site costs exactly one
	// pointer check when disabled.
	stats    *DPStats
	statsBuf DPStats
}

type dpEntry struct {
	period  float64
	k       int32 // chosen stage start layer; -1 for base cases
	special bool  // chosen branch
}

// dpFrame is one suspended evaluation of the DP recurrence on the
// explicit work stack: the state indices, the current cut position k,
// the branch being awaited (stage 0 = normal processor, stage 1 =
// special processor) and the best entry found so far. best starts at
// the frame's cutoff (see solve) with k = -1. memOK records whether any
// cut passed a memory check: a state that ends infeasible with memOK
// still false died on memory alone, which is monotone in T̂ and
// therefore certifiable across probes (see dpTable.certMark).
type dpFrame struct {
	l, p, itP, imP, iV int32
	k                  int32
	stage              int8
	memOK              bool
	best               dpEntry
}

// roundUp maps a continuous value onto its grid index, rounding up
// (pessimistic: larger loads, memory and delays) and clamping at the top
// of the grid.
func roundUp(v, step float64, n int) int {
	if step <= 0 {
		return 0
	}
	i := int(math.Ceil(v/step - 1e-9))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// ceilT returns ceil(x / T̂) with a relative epsilon guard.
func (r *dpRun) ceilT(x float64) float64 {
	return math.Ceil(x/r.that - 1e-9)
}

// cutDelay is the delay arithmetic of a cut [k, l] with work u and
// per-batch compute cl = cLeft[k] under downstream delay v. It returns
// cw = ceilT(v+u), from which groupCount gives the cut's group count,
// and the child's delay (v ⊕ u) ⊕ cl, evaluating each ceilT once; ⊕ is
// Section 4.2.2's operator: advance a delay by a work amount, snapping
// it up to the next multiple of T̂ when the sum crosses a group
// boundary. cv is ceilT(v), which a caller scanning the cuts of one
// state computes once per state. cw serves both the group count and the
// first ⊕'s crossing side. A snap keeps ⊕'s T̂·n + y expression, so the
// float results equal the textbook form's (the tests' oplus) on every
// architecture. Every DP path (solve's inline arm, fillEnt, reconstruct)
// goes through here. Returning cw rather than the clamped count keeps
// the body under the compiler's inlining budget, which solve's cut loop
// needs.
func (r *dpRun) cutDelay(v, cv, u, cl float64) (cw, vNext float64) {
	vNext = v + u
	cw = r.ceilT(vNext)
	if cw != cv {
		vNext = r.that*cv + u
		cv = r.ceilT(vNext)
	}
	// cv is ceilT(v ⊕ u) now: without a snap it equals cw.
	if r.ceilT(vNext+cl) != cv {
		return cw, r.that*cv + cl
	}
	return cw, vNext + cl
}

// groupsU returns g(k,l,V) = ceil((V + U(k,l)) / T̂) from u = U(k,l):
// the number of activation copies a stage [k,l] must retain when the
// downstream delay is V.
func (r *dpRun) groupsU(v, u float64) int {
	return groupCount(r.ceilT(v + u))
}

// groupCount is a group count from its ceilT value: at least one.
func groupCount(c float64) int {
	return max(int(c), 1)
}

// stageMem evaluates the stage memory M(k,l,g) from the hoisted prefix
// slices, operation-for-operation identical to chain.StageMemoryWith.
func (r *dpRun) stageMem(k, l, g int) float64 {
	m := (r.wFixed+r.wPerBatch*float64(g))*(r.sumWTo[l]-r.sumWTo[k-1]) + float64(g)*(r.asTo[l]-r.asTo[k-1])
	if k > 1 {
		m += r.twoA[k-1]
	}
	if l < r.L {
		m += r.twoA[l]
	}
	return m
}

// childFloor is the work-conservation floor on the value of a child
// state over the prefix [1, kc] with special-processor load tP, spread
// through inv = 1/(processors the child has left). Every DP value
// T(l, p, t_P, ·) is the largest of p+1 processor loads (p normal
// stages and the special processor) that together carry at least
// U(1,l) + t_P, so T >= (U(1,l) + t_P)/(p+1), by induction over the
// recurrence:
//
//   - base case (p == 0): the value is U(1,l) + t_P itself; l == 0: t_P;
//   - normal cut: max(u, sub) >= (u + p·sub)/(p+1), and the child's
//     floor carries U(1,k-1) + t_P over p processors;
//   - special cut: the child's load t_P' snaps U(k,l) + t_P up to the
//     t_P grid, so it carries U(1,l) + t_P over p+1 processors again —
//     unless it clamps at the grid top, where the candidate's own
//     t_P' = TotalU already covers (U(1,l) + t_P)/(p+1) for p >= 1;
//   - memory death only raises values to +Inf, and certificates adopt
//     true values.
//
// A cut whose child floor meets the incumbent cannot strictly improve
// it, so the solvers skip the child without changing any value or
// decision.
//
// The bound holds in real arithmetic; the float recurrence loses a
// little per layer, and floorSlack covers it. Let top be the t_P grid's
// top value (≈ TotalU). Per layer, roundUp's 1e-9 epsilon may round
// t_P' down by up to 1e-9·stepT, and five operations — the prefix
// difference u, the sum t_P + u, and roundUp's division, epsilon
// subtraction and grid product — each round by at most 2^-53 relative:
// under 5.6e-16·(TotalU + top) together. floorSlack is
// 1.001e-9·stepT + 1e-15·(TotalU + top), so a child over kc >= 1 layers
// keeps a surplus of at least 1e-12·stepT + 4.4e-16·(TotalU + top),
// over 2.3e-15·(TotalU + top) since Discretization caps TP at 256. That
// absorbs the five roundings of this expression and of inv (again
// under 5.6e-16·(TotalU + top)). A child over kc == 0 layers needs no
// slack: its value is tP exactly, and tP·inv <= tP.
func (r *dpRun) childFloor(kc int, tP, inv float64) float64 {
	return (r.uTo[kc] + tP - float64(kc)*r.floorSlack) * inv
}

// hoistKey identifies the inputs the hoisted slices are derived from.
// The memory budget is absent on purpose: it feeds the comparisons, not
// the slices.
type hoistKey struct {
	c       *chain.Chain
	lat, bw float64
	weights chain.WeightPolicy
}

// hoistCache keeps the T̂-independent hoisted slices alive on the table
// across the probes of a lease (and, through the PlannerCache, across
// sweep cells): every probe of one Algorithm 1 call rebuilds exactly the
// same five O(L) slices otherwise. The slices are read-only for the
// duration of a run, so aliasing them into each probe's dpRun is safe
// under the one-invocation-per-table rule.
type hoistCache struct {
	key                            hoistKey
	uTo, sumWTo, asTo, twoA, cLeft []float64
}

// init populates the hoisted slices for one (chain, platform) pair,
// adopting the table's cached copies when the key matches.
func (r *dpRun) init() {
	c := r.c
	L := c.Len()
	r.L = L
	r.mem = r.plat.Memory
	w := r.weights
	if w == (chain.WeightPolicy{}) {
		w = chain.TwoBufferedWeights()
	}
	r.wFixed, r.wPerBatch = w.Fixed, w.PerBatch
	r.floorSlack = 1.001e-9*r.stepT + 1e-15*(c.TotalU()+float64(r.nT-1)*r.stepT)
	h := &r.tab.hoist
	key := hoistKey{c: c, lat: r.plat.Latency, bw: r.plat.Bandwidth, weights: w}
	if h.key == key && len(h.uTo) == L+1 {
		r.uTo, r.sumWTo, r.asTo, r.twoA, r.cLeft = h.uTo, h.sumWTo, h.asTo, h.twoA, h.cLeft
		if st := r.stats; st != nil {
			st.HoistReuses++
		}
		return
	}
	h.key = key
	h.uTo = grow(h.uTo, L+1)
	h.sumWTo = grow(h.sumWTo, L+1)
	h.asTo = grow(h.asTo, L+1)
	h.twoA = grow(h.twoA, L+1)
	h.cLeft = grow(h.cLeft, L+1)
	h.uTo[0], h.sumWTo[0], h.asTo[0] = 0, 0, 0
	h.twoA[0] = 2 * c.A(0)
	h.cLeft[0], h.cLeft[1] = 0, 0
	for i := 1; i <= L; i++ {
		h.uTo[i] = c.U(1, i)
		h.sumWTo[i] = c.SumW(1, i)
		h.asTo[i] = c.AStore(1, i)
		h.twoA[i] = 2 * c.A(i)
		if i > 1 {
			h.cLeft[i] = c.CommTimeAlphaBeta(i-1, r.plat.Latency, r.plat.Bandwidth)
		}
	}
	r.uTo, r.sumWTo, r.asTo, r.twoA, r.cLeft = h.uTo, h.sumWTo, h.asTo, h.twoA, h.cLeft
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// baseCase is the p == 0 case of the recurrence: the remaining prefix
// becomes a single stage on the special processor.
func (r *dpRun) baseCase(l int, tP, mP, v float64) dpEntry {
	if r.disableSpecial {
		return dpEntry{period: inf, k: -1}
	}
	g := r.groupsU(v, r.uTo[l])
	if !(mP+r.stageMem(1, l, g-1) <= r.mem) {
		return dpEntry{period: inf, k: -1}
	}
	return dpEntry{period: r.uTo[l] + tP, k: -1, special: true}
}

// childValue returns the value of a sub-state for a caller whose
// incumbent is cutoff, if the state is already resolved: l == 0 states
// are closed-form, everything else comes from the table — or from a
// cross-probe memory-death certificate, which settles the child at
// infinity without descending. An exact entry answers every caller. A
// lower-bound entry (see solve) answers only a caller whose cutoff it
// meets: such a caller cannot adopt the child anyway. For a caller with
// a higher cutoff the state is unresolved, and solve re-evaluates
// ("reopens") it at that cutoff.
func (r *dpRun) childValue(l, p, itP, imP, iV int, cutoff float64) (float64, bool) {
	if l == 0 {
		return float64(itP) * r.stepT, true
	}
	idx := r.tab.idx(l, p, itP, imP, iV)
	if v, bound, ok := r.tab.getPeriod(idx); ok {
		if !bound || v >= cutoff {
			return v, true
		}
		if st := r.stats; st != nil {
			st.StatesReopened++
		}
		return 0, false
	}
	if r.tab.certDead(idx, r.that) {
		if st := r.stats; st != nil {
			st.StatesCertPruned++
		}
		r.tab.putAdopted(idx, dpEntry{period: inf, k: -1})
		return inf, true
	}
	return 0, false
}

// solve evaluates T(l, p, t_P, m_P, V) with an explicit work stack: a
// frame suspends at the branch whose sub-state is not yet tabulated,
// pushes the child, and resumes — recomputing only the cheap per-k
// scalars — once the child's entry lands in the table. The
// traversal order, pruning and floating-point operations replicate the
// recursive formulation exactly (see TestDenseMatchesMapDP). A root
// that is already tabulated or certified returns through childValue.
//
// The cut loop is a branch and bound. A child frame starts with the
// parent's current incumbent as its cutoff: the parent adopts the child
// only if the child's value is strictly below it, so the child's
// monotone break, cl test and load floors prune against it from its
// first cut. After every cut a frame started at cutoff c holds
// min(c, the unbounded frame's incumbent), so it returns the unbounded
// value and decision whenever that value is below c. A frame that
// adopts no cut closes as a lower-bound entry (period c, decision 0; see
// getPeriod), which childValue serves only to callers it still prunes.
// Every state on the reconstructed path was adopted below its cutoff
// and is therefore exact.
func (r *dpRun) solve(l0, p0, itP0, imP0, iV0 int) float64 {
	if v, ok := r.childValue(l0, p0, itP0, imP0, iV0, inf); ok {
		return v
	}
	stats := r.stats
	cc := &r.tab.cols
	st := r.stack[:0]
	st = append(st, dpFrame{
		l: int32(l0), p: int32(p0), itP: int32(itP0), imP: int32(imP0), iV: int32(iV0),
		k: int32(l0), best: dpEntry{period: inf, k: -1},
	})
	for len(st) > 0 {
		f := &st[len(st)-1]
		l, p := int(f.l), int(f.p)
		tP := float64(f.itP) * r.stepT
		mP := float64(f.imP) * r.stepM
		v := float64(f.iV) * r.stepV

		if p == 0 {
			e := r.baseCase(l, tP, mP, v)
			idx := r.tab.idx(l, 0, int(f.itP), int(f.imP), int(f.iV))
			r.tab.put(idx, e)
			if e.period == inf {
				// Base cases fail only on memory (or a disabled special
				// processor), both monotone in T̂: certifiable.
				r.tab.certMark(idx, r.that)
				if stats != nil && r.tab.certOn {
					stats.CertsRecorded++
				}
			}
			st = st[:len(st)-1]
			continue
		}

		// Per-frame factors of the children's work-conservation floors
		// (childFloor): a normal child has p processors left, a special
		// child p+1. cv is ceilT(v), the inline arm's cutDelay argument.
		invP, invP1 := 1/float64(p), 1/float64(p+1)
		var cv float64
		if !cc.on {
			cv = r.ceilT(v)
		}
		pushed := false
	cuts:
		for k := int(f.k); k >= 1; k-- {
			u := r.uTo[l] - r.uTo[k-1]
			if f.stage == 0 && u >= f.best.period {
				// Both branches cost at least U(k,l), which only grows as
				// k decreases. (Checked only on a fresh k: a resumed
				// special branch must still run even if the normal branch
				// just tightened best to exactly u.)
				if stats != nil {
					stats.CutsSkippedMonotone += uint64(k)
				}
				break
			}
			if stats != nil {
				// Cut visits: a cut counts again when its frame resumes
				// after a child suspension.
				stats.CutsEvaluated++
			}
			cl := r.cLeft[k]
			// Pre-scalar floors. The normal candidate is max3(u, cl, sub)
			// and the special one max3(tNext, cl, sub); the incumbent only
			// improves on a strict decrease, so cl, tNext or a child floor
			// at or above it settles a branch without the child. None of
			// those tests needs the cut's scalars, so a fresh cut whose
			// branches are both settled is skipped before computing them.
			// A skip needs a finite incumbent, so it never hides a memory
			// death (memOK). On a resumed normal branch the normal child
			// passed these tests against the same incumbent.
			normLive := true
			if f.stage == 0 {
				normLive = cl < f.best.period && r.childFloor(k-1, tP, invP) < f.best.period
				if !normLive && r.specialDead(k, cl, tP, u, invP1, f.best.period) {
					if stats != nil {
						stats.CutsSkippedFloor++
					}
					continue
				}
			}
			// Per-cut scalars: from the monotone cut-point columns when
			// the cache fits, recomputed inline otherwise. Both arms run
			// the identical expressions (cutDelay, see columns.go), so the
			// decision stream is the same either way.
			var g, iVN int
			var smem float64
			var normOK bool
			if cc.on {
				base, gmax := r.col(l, k)
				e := &cc.ent[base+int(f.iV)]
				if e.g == 0 {
					r.fillEnt(l, k, int(f.iV), e)
				}
				iVN = int(e.ivn)
				normOK = e.g <= gmax
				smem = e.smem
			} else {
				cw, vNext := r.cutDelay(v, cv, u, cl)
				g = groupCount(cw)
				iVN = roundUp(vNext, r.stepV, r.nV)
				normOK = r.stageMem(k, l, g) <= r.mem
				if !r.disableSpecial {
					smem = r.stageMem(k, l, g-1)
				}
			}

			if f.stage == 0 && normOK {
				// Assign stage [k,l] to a normal processor. memOK is set
				// before the floor test: the floor needs a finite
				// incumbent, so it never hides a death.
				f.memOK = true
				if !normLive {
					if stats != nil {
						stats.CutsSkippedFloor++
					}
				} else {
					sub, ok := r.childValue(k-1, p-1, int(f.itP), int(f.imP), iVN, f.best.period)
					if !ok {
						f.k = int32(k)
						st = append(st, dpFrame{
							l: int32(k - 1), p: int32(p - 1), itP: f.itP, imP: f.imP, iV: int32(iVN),
							k: int32(k - 1), best: dpEntry{period: f.best.period, k: -1},
						})
						pushed = true
						break cuts
					}
					cand := max3(u, cl, sub)
					if cand < f.best.period {
						f.best = dpEntry{period: cand, k: int32(k)}
					}
				}
			}
			f.stage = 1

			// Assign stage [k,l] to the special processor. Its memory is
			// under-estimated with g-1 copies (Section 4.2.1); the
			// scheduling phase repairs the difference.
			if !r.disableSpecial {
				if mNext := mP + smem; mNext <= r.mem {
					f.memOK = true
					itPN := roundUp(tP+u, r.stepT, r.nT)
					tNext := float64(itPN) * r.stepT
					// Same early decisions as the pre-scalar test, against
					// an incumbent the normal branch may just have
					// tightened.
					if tNext >= f.best.period || cl >= f.best.period {
						f.stage = 0
						continue
					}
					if r.childFloor(k-1, tNext, invP1) >= f.best.period {
						if stats != nil {
							stats.CutsSkippedFloor++
						}
						f.stage = 0
						continue
					}
					imPN := roundUp(mNext, r.stepM, r.nM)
					sub, ok := r.childValue(k-1, p, itPN, imPN, iVN, f.best.period)
					if !ok {
						f.k = int32(k)
						st = append(st, dpFrame{
							l: int32(k - 1), p: f.p, itP: int32(itPN), imP: int32(imPN), iV: int32(iVN),
							k: int32(k - 1), best: dpEntry{period: f.best.period, k: -1},
						})
						pushed = true
						break cuts
					}
					cand := max3(tNext, cl, sub)
					if cand < f.best.period {
						f.best = dpEntry{period: cand, k: int32(k), special: true}
					}
				}
			}
			f.stage = 0
		}
		if pushed {
			// The append above may have moved the backing array; keep the
			// grown stack for reuse and re-enter the loop on the child.
			continue
		}
		idx := r.tab.idx(l, p, int(f.itP), int(f.imP), int(f.iV))
		if f.best.period == inf && !f.memOK {
			// Every cut of every branch failed its memory check — no break
			// can have fired (u >= inf never holds), so the whole k range
			// was examined and the death is certifiable for smaller T̂.
			// Only a frame solved at an infinite cutoff gets here.
			r.tab.certMark(idx, r.that)
			if stats != nil && r.tab.certOn {
				stats.CertsRecorded++
			}
		}
		if stats != nil && f.best.k < 0 && f.best.period < inf {
			stats.StatesBounded++
		}
		r.tab.put(idx, f.best)
		st = st[:len(st)-1]
	}
	r.stack = st[:0]
	v, _, _ := r.tab.getPeriod(r.tab.idx(l0, p0, itP0, imP0, iV0))
	return v
}

// specialDead reports whether the special branch of cut k (work u,
// link time cl) cannot strictly improve the incumbent best, from the
// tests the branch itself applies before its child lookup: its
// candidate is max3(tNext, cl, sub), and sub is at least the child's
// floor. tNext is the t_P grid value the branch would hand its child.
func (r *dpRun) specialDead(k int, cl, tP, u, inv, best float64) bool {
	if r.disableSpecial || cl >= best {
		return true
	}
	tNext := float64(roundUp(tP+u, r.stepT, r.nT)) * r.stepT
	return tNext >= best || r.childFloor(k-1, tNext, inv) >= best
}

// DPResult is the outcome of one MadPipe-DP call.
type DPResult struct {
	// Period is the allocation's load-based period (inf if infeasible at
	// this target).
	Period float64
	// Alloc is the reconstructed allocation; nil when infeasible.
	Alloc *partition.Allocation
	// States is the number of tabulated DP states, for diagnostics.
	States int
	// Stats is the run's full counter set, populated only when the
	// planner's observability is enabled (Options.Obs != nil); otherwise
	// only the table economics (TableVirtualBytes, TableResidentBytes,
	// TableBlocksResident) are set.
	Stats DPStats
}

// dpConfig bundles the per-invocation knobs of the DP driver.
type dpConfig struct {
	disc           Discretization
	disableSpecial bool
	weights        chain.WeightPolicy
	// obs enables stats collection and receives the run's cumulative
	// counters; nil disables all instrumentation.
	obs *obs.Registry
}

// runDP executes MadPipe-DP for a fixed target period T̂ and reconstructs
// the allocation, leasing a table from the arena for the duration
// of the call. normals is the number of normal processors (P-1 with the
// special processor enabled, P for the contiguous ablation).
func runDP(c *chain.Chain, plat platform.Platform, that float64, cfg dpConfig) (*DPResult, error) {
	tab := acquireTable()
	defer releaseTable(tab, cfg.obs)
	return runDPWith(tab, c, plat, that, cfg)
}

// runDPWith is runDP on a caller-provided table, so Algorithm 1 can
// reuse one arena lease — and its cut columns, g thresholds and
// infeasibility certificates — across all its probes.
func runDPWith(tab *dpTable, c *chain.Chain, plat platform.Platform, that float64, cfg dpConfig) (*DPResult, error) {
	if that <= 0 {
		return nil, fmt.Errorf("core: target period must be positive, got %g", that)
	}
	disc := cfg.disc
	if err := disc.validate(); err != nil {
		return nil, err
	}
	normals := plat.Workers - 1
	if cfg.disableSpecial {
		normals = plat.Workers
	}
	// t_P and m_P stay zero without the special processor, so the table
	// collapses those axes to a single cell.
	nT, nM := disc.TP, disc.MP
	if cfg.disableSpecial {
		nT, nM = 1, 1
	}
	// T(l, p, ·) does not depend on p once p >= l: a prefix of l layers
	// uses at most l normal stages, no path reaches the p == 0 base case
	// before l == 0, and the only other read of p — the load floor's 1/p
	// — never changes a value or decision. So normals past the chain
	// length plan exactly as normals == L, on a table sized for L.
	normals, err := clampShape(c.Len(), normals, nT, nM, disc.V)
	if err != nil {
		return nil, err
	}

	totalU := c.TotalU()
	r := &dpRun{
		c: c, plat: plat, that: that,
		disableSpecial: cfg.disableSpecial,
		weights:        cfg.weights,
		nT:             disc.TP, nM: disc.MP, nV: disc.V,
		stepT: totalU / float64(disc.TP-1),
		stepM: plat.Memory / float64(disc.MP-1),
		stepV: (totalU + c.TotalCommTimeAlphaBeta(plat.Latency, plat.Bandwidth)) / float64(disc.V-1),
		tab:   tab,
	}
	if cfg.obs != nil {
		r.stats = &r.statsBuf
	}
	r.init()
	tab.reset(c.Len()+1, normals+1, nT, nM, disc.V)
	tab.cols.reset(c.Len(), disc.V, (float64(disc.V-1)*r.stepV+totalU)/that, gmaxKey{
		c: c, mem: plat.Memory,
		weights: chain.WeightPolicy{Fixed: r.wFixed, PerBatch: r.wPerBatch},
	})
	period := r.solve(c.Len(), normals, 0, 0, 0)
	res := &DPResult{Period: period, States: tab.states}
	// Table economics are populated even without observability: they are
	// a deterministic function of the run (no timing, no sampling; the
	// blocks counted are the ones this run wrote, whatever the leased
	// table held before), cost a handful of stores, and the serving layer
	// surfaces them in /v1/stats gauges without handing the planner a
	// registry.
	res.Stats.TableVirtualBytes = uint64(tab.size) * uint64(stateBytes)
	res.Stats.TableBlocksResident = uint64(tab.runBlocks)
	res.Stats.TableResidentBytes = uint64(tab.runBlocks) * blockSize * uint64(stateBytes)
	if st := r.stats; st != nil {
		st.StatesEvaluated = uint64(tab.states)
		st.TableVirtualBytes = res.Stats.TableVirtualBytes
		st.TableResidentBytes = res.Stats.TableResidentBytes
		st.TableBlocksResident = res.Stats.TableBlocksResident
		res.Stats = *st
		st.flush(cfg.obs)
	}
	if period == inf {
		return res, nil
	}
	alloc, err := r.reconstruct(normals)
	if err != nil {
		return nil, err
	}
	res.Alloc = alloc
	return res, nil
}

// reconstruct replays the tabulated decisions from the root state and
// builds the allocation. Normal stages are mapped to processors
// 0..normals-1 in chain order; special stages to processor P-1.
func (r *dpRun) reconstruct(normals int) (*partition.Allocation, error) {
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
		// Every state on the decision path was evaluated or adopted by
		// this probe: death certificates settle only +Inf states, which
		// the walk never follows.
		e, ok := r.tab.get(r.tab.idx(l, p, itP, imP, iV))
		if !ok || e.period == inf {
			return nil, fmt.Errorf("core: reconstruction reached unexplored state (l=%d p=%d)", l, p)
		}
		if e.k < 0 {
			// Base case chosen at p == 0 is handled above; k < 0 with
			// p > 0 cannot happen.
			return nil, fmt.Errorf("core: reconstruction hit base entry with p=%d", p)
		}
		k := int(e.k)
		tP := float64(itP) * r.stepT
		mP := float64(imP) * r.stepM
		v := float64(iV) * r.stepV
		u := r.uTo[l] - r.uTo[k-1]
		cw, vNext := r.cutDelay(v, r.ceilT(v), u, r.cLeft[k])
		g := groupCount(cw)
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

	// stages were collected from the tail of the chain; reverse them.
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

package core

import (
	"fmt"

	"madpipe/internal/chain"
	"madpipe/internal/partition"
	"madpipe/internal/platform"
)

// Bracket is a closed target-period interval [Lo, Hi]. PlanAllocation
// reports the final bracket of its bisection through ResultHint so a
// sweep harness can inspect how the search converged.
type Bracket struct {
	Lo, Hi float64
}

// Hint carries knowledge between PlanAllocation calls that differ only
// in the platform's memory limit — the cells of one sweep row. It does
// NOT seed the bisection bracket: an inherited [lo, hi] tighter than the
// cold bracket would change the probe trajectory and could clip the
// optimum (max(DP(T̂), T̂) is not monotone enough in T̂ for that to be
// safe). Instead the hint records exact-replay facts that let later
// calls skip DP invocations while probing the exact same T̂ sequence:
//
//   - Infeasibility floors. When the full DP proves the root state
//     infeasible at target T̂ under memory limit M, the same DP at the
//     same T̂ is infeasible at every M' <= M. This is exact, not merely
//     modeled: the m_P grid step scales linearly with M, so each stage's
//     memory-index sequence at the smaller limit dominates the larger
//     limit's pointwise, and every memory check (base case, special
//     branch, normal-branch gmax) only gets harder. A floored probe is
//     folded exactly as the cold search folds an infeasible DP result.
//     Floors match their recorded T̂ exactly — never T̂' < T̂ — because ⊕
//     delay snapping makes infeasibility non-monotone in the target
//     (the same reason death certificates record memory-death only).
//
//   - Cell-level death certificates. When an entire search (all
//     Iterations probes) comes back infeasible at M, the probe
//     trajectory at any M' <= M replays identically — the bracket's
//     upper bound never moves on infeasible folds, so every midpoint is
//     covered by a floor by induction — and the search fails the same
//     way. Dead reports this, letting a sweep skip dominated-infeasible
//     cells without running the planner at all. This lifts the DP
//     table's per-probe memory-death certificates (table.go, certArm) to
//     whole-cell scope.
//
// The floors depend on the probe trajectory, which is a function of
// everything in the planner input except the memory limit. bind pins the
// hint to that signature on first use and panics on mismatch — sharing a
// Hint across rows is a programming error, not a soft degradation.
//
// A Hint is confined to one goroutine at a time (the sweep's row
// affinity guarantees this); it is not safe for concurrent use. Within
// one PlanAllocation the search consults and updates the hint only on
// its coordinating goroutine, at every probe fan.
type Hint struct {
	bound bool
	key   hintKey
	// floors[0] is the special-processor mode, floors[1] the contiguous
	// (DisableSpecial) mode: one Hint serves both searches of a sweep
	// cell, including the contiguous re-plan inside PlanAndSchedule.
	floors [2]floorStore
	// frontier arms the feasible-probe store (armFrontier): searches run
	// their DP probes with memory-interval tracking (sound per run even
	// under certificate adoption — an adopting run collapses its claim
	// to the limit it verified, see dpRun.mtrack), and feasible probe
	// results are recorded with the half-open memory interval on which
	// they provably replay, widened by monotone bracket merging.
	// Infeasible probes keep using the floors above (their coverage —
	// every M' <= the recorded limit — is strictly wider). Disarmed
	// hints never consult or grow the store, so non-frontier callers pay
	// nothing.
	frontier bool
	// probes[mode] maps an exact probe target T̂ to the feasible results
	// recorded at that target, each valid on its own memory interval.
	// Walking one row keeps this tiny: one record per frontier segment
	// per target.
	probes [2]map[float64][]frontierRec
}

// frontierRec is one feasible DP probe outcome pinned to the half-open
// memory interval [mlo, mhi) on which the probe provably returns the
// same answer. The interval is seeded by a DP run's tracked replay
// interval (see dpRun.mtrack) and widened by monotone bracket merging
// (see frontierRecord): at a fixed probe target T̂ a decision
// sequence's value is memory-independent — memory only gates
// feasibility — and its feasibility is monotone in the limit (the
// same exact domination argument behind the infeasibility floors: the
// m_P grid step scales with M, so every memory check only gets harder
// as M shrinks). Two runs at M1 < M2 returning the same period and
// the same allocation therefore pin the probe's answer on all of
// [M1, M2]: the optimal value is sandwiched between equal endpoints,
// and the reconstruction — a deterministic, memory-independent
// tie-break over decision sequences whose feasible set grows
// monotonically with M — picks the same sequence everywhere between
// endpoints that agree on it.
type frontierRec struct {
	mlo, mhi float64
	period   float64
	alloc    *partition.Allocation
}

// NewHint returns an empty hint for one sweep row.
func NewHint() *Hint {
	return &Hint{}
}

// hintKey is the planner input a hint's floors are conditioned on:
// everything that shapes the probe trajectory except the memory limit
// (and the special mode, which selects the floor store instead).
// Observability is deliberately absent — it never changes outputs.
type hintKey struct {
	c          *chain.Chain
	workers    int
	latency    float64
	bandwidth  float64
	disc       Discretization
	iterations int
	weights    chain.WeightPolicy
	parallel   int // resolved worker count: the probe fan shapes the schedule
}

// floorStore is one mode's record of probe targets proven root-infeasible.
type floorStore struct {
	// mem maps an exact probe target T̂ to the largest memory limit at
	// which the full DP proved it infeasible.
	mem map[float64]float64
	// deadMem is the largest memory limit at which a whole search failed
	// (0 = none recorded; real limits are positive).
	deadMem float64
}

func modeIdx(disableSpecial bool) int {
	if disableSpecial {
		return 1
	}
	return 0
}

// bind pins the hint to one row signature (nil-safe). Reusing a hint
// across rows would replay floors whose probe trajectories do not match,
// silently corrupting results — fail loudly instead.
func (h *Hint) bind(k hintKey) {
	if h == nil {
		return
	}
	if !h.bound {
		h.bound, h.key = true, k
		return
	}
	if h.key != k {
		panic(fmt.Sprintf("core: Hint shared across incompatible searches (have %+v, got %+v); use one Hint per sweep row", h.key, k))
	}
}

// covered reports whether a probe at exactly target that is provably
// infeasible at memory limit mem (nil-safe).
func (h *Hint) covered(disableSpecial bool, that, mem float64) bool {
	if h == nil {
		return false
	}
	rec, ok := h.floors[modeIdx(disableSpecial)].mem[that]
	return ok && mem <= rec
}

// record notes that the DP at target that returned root-infeasible under
// memory limit mem (nil-safe). Floors keep the largest such limit.
func (h *Hint) record(disableSpecial bool, that, mem float64) {
	if h == nil {
		return
	}
	f := &h.floors[modeIdx(disableSpecial)]
	if f.mem == nil {
		f.mem = make(map[float64]float64)
	}
	if old, ok := f.mem[that]; !ok || mem > old {
		f.mem[that] = mem
	}
}

// floorAt returns the recorded infeasibility floor for exactly target
// that — the largest memory limit at which the probe is proven
// infeasible — or false when none exists (nil-safe).
func (h *Hint) floorAt(disableSpecial bool, that float64) (float64, bool) {
	if h == nil {
		return 0, false
	}
	rec, ok := h.floors[modeIdx(disableSpecial)].mem[that]
	return rec, ok
}

// recordDead notes that an entire search failed at memory limit mem
// (nil-safe).
func (h *Hint) recordDead(disableSpecial bool, mem float64) {
	if h == nil {
		return
	}
	f := &h.floors[modeIdx(disableSpecial)]
	if mem > f.deadMem {
		f.deadMem = mem
	}
}

// armFrontier switches the hint into frontier mode (nil-safe): searches
// bound to it run interval-tracked DP probes and reuse feasible probe
// results across memory limits. Arming is
// one-way for the hint's lifetime — mixing tracked and untracked
// searches on one store would record intervals the untracked probes
// never validated.
func (h *Hint) armFrontier() {
	if h != nil {
		h.frontier = true
	}
}

// frontierArmed reports whether the feasible-probe store is active.
func (h *Hint) frontierArmed() bool {
	return h != nil && h.frontier
}

// frontierCovered looks up a feasible probe result at exactly target
// that whose recorded memory interval contains mem. The returned result
// re-targets the recorded allocation at the caller's platform (same
// workers/bandwidth/latency by the bind contract; only Memory moves),
// sharing the immutable span and processor slices.
func (h *Hint) frontierCovered(disableSpecial bool, that, mem float64, plat platform.Platform) (*DPResult, bool) {
	if !h.frontierArmed() {
		return nil, false
	}
	for _, rec := range h.probes[modeIdx(disableSpecial)][that] {
		if rec.mlo <= mem && mem < rec.mhi {
			a := *rec.alloc
			a.Plat = plat
			return &DPResult{Period: rec.period, Alloc: &a, MLo: rec.mlo, MHi: rec.mhi}, true
		}
	}
	return nil, false
}

// frontierRecord stores a feasible DP probe outcome with its tracked
// memory-validity interval (no-op unless armed, the probe is feasible,
// and tracking produced a non-degenerate interval). A new observation
// whose period and allocation match an existing record at the same
// target merges into it, widening the record to the hull of both
// intervals: the gap between the two observed limits is certified by
// monotonicity (see frontierRec), and each tracked interval certifies
// its own overhang beyond its observation. This is what makes a
// bisection-ordered frontier walk cheap — once the two ends of a
// plateau are solved, every probe of every sample between them is
// answered by the merged record.
func (h *Hint) frontierRecord(disableSpecial bool, that float64, dp *DPResult) {
	if !h.frontierArmed() || dp.Alloc == nil || !(dp.MLo < dp.MHi) {
		return
	}
	m := modeIdx(disableSpecial)
	if h.probes[m] == nil {
		h.probes[m] = make(map[float64][]frontierRec)
	}
	recs := h.probes[m][that]
	for i := range recs {
		rec := &recs[i]
		if rec.period == dp.Period && allocSame(rec.alloc, dp.Alloc) {
			if dp.MLo < rec.mlo {
				rec.mlo = dp.MLo
			}
			if dp.MHi > rec.mhi {
				rec.mhi = dp.MHi
			}
			return
		}
	}
	h.probes[m][that] = append(recs, frontierRec{
		mlo: dp.MLo, mhi: dp.MHi, period: dp.Period, alloc: dp.Alloc,
	})
}

// allocSame reports whether two allocations make the same decisions:
// identical spans and processor assignments (the chain, platform shape
// and weight policy are fixed by the hint's bind contract).
func allocSame(a, b *partition.Allocation) bool {
	if len(a.Spans) != len(b.Spans) {
		return false
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] || a.Procs[i] != b.Procs[i] {
			return false
		}
	}
	return true
}

// Dead reports whether a whole search at memory limit mem is dominated
// by a recorded full-search failure at mem or above: the search would
// replay the failed trajectory probe for probe and fail identically, so
// a sweep can skip it outright. Safe on a nil hint (always false).
func (h *Hint) Dead(disableSpecial bool, mem float64) bool {
	if h == nil {
		return false
	}
	f := &h.floors[modeIdx(disableSpecial)]
	return f.deadMem > 0 && mem <= f.deadMem
}

// ResultHint summarizes one PlanAllocation search for the caller: the
// final bisection bracket and the probe economics (how many probes
// folded, and how many of those were answered by an infeasibility floor
// without running the DP). Probes and ProbesSaved are deterministic for
// a fixed input and hint state — a memo hit returns the originating
// run's values.
type ResultHint struct {
	Bracket     Bracket
	Probes      int
	ProbesSaved int
	// FrontierSaved is the subset of ProbesSaved answered by the
	// frontier's feasible-probe store (as opposed to infeasibility
	// floors); zero unless the search ran under an armed frontier hint.
	FrontierSaved int
	// MemLo/MemHi bound the half-open memory interval [MemLo, MemHi) on
	// which the whole search provably replays: the intersection of every
	// folded probe's validity interval (tracked for DP runs, recorded for
	// store hits, (0, M] for floor hits). Populated only by frontier-mode
	// searches; both zero otherwise.
	MemLo, MemHi float64
}

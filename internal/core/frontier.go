package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"madpipe/internal/chain"
	"madpipe/internal/platform"
)

// This file implements the parametric frontier solver: the planner's
// output T*(M) — Algorithm 1's best effective period as a function of
// the memory limit, with everything else fixed — is piecewise-constant
// in M, and PlanFrontier recovers the step function over a sampled
// memory range in roughly the cost of its single hardest point instead
// of one full bisection per point.
//
// The mechanism is Megiddo-style parametric search over the memory
// axis, built from four exact facts:
//
//   - Algorithm 1's probe trajectory is memory-independent: the initial
//     bracket [TotalU/P, TotalU + TotalComm] does not involve M, and
//     the fold consumes only each probe's feasibility and period — so
//     if every probe answers identically at M', the whole search
//     replays move for move.
//   - A DP probe run with memory-interval tracking (dpRun.mtrack)
//     certifies the half-open interval [MLo, MHi) of memory limits on
//     which its answer — traversal, value and reconstruction — replays
//     bit-identically. Feasible probes are recorded in the hint's
//     frontier store with that interval (Hint.frontierRecord).
//   - At a fixed probe target, a probe's answer is a monotone function
//     of the memory limit: decision values are memory-independent and
//     feasibility only tightens as M shrinks (the floors' domination
//     argument). Two runs bracketing a memory range with the same
//     period and allocation therefore certify the whole range, and
//     their records merge into one wide bracket (see frontierRec).
//   - Infeasible probes are covered by PR 5's floors, exact for every
//     M' <= the recorded limit, and a fully infeasible search kills
//     every smaller limit outright (Hint.recordDead).
//
// PlanFrontier solves the two ends of the sampled range first, then
// visits the remaining samples in recursive bisection order, so every
// T*(M) plateau is bracketed before its interior is sampled: interior
// searches fold entirely from merged bracket records and floors,
// running the DP only near breakpoints — the "replays". Consecutive
// samples with identical outcomes merge into one frontier segment.

// FrontierSegment is one plateau of the sampled T*(M) step function.
type FrontierSegment struct {
	// MemHi and MemLo are the highest and lowest sampled memory limits
	// (bytes) that produced this outcome.
	MemHi, MemLo float64
	// CertLo is the certificate floor: the outcome provably extends as
	// a constant over [CertLo, MemHi], which may reach below MemLo
	// (probe certificates outrun the sampling grid) or sit above it
	// (equal outcomes whose certificate intervals left a gap; the
	// samples below CertLo are exact point checks). Infeasible segments
	// are certified to 0: a dead search kills every smaller limit.
	CertLo float64
	// Feasible is false for the infeasible tail (Result == nil).
	Feasible bool
	// Predicted and Target are the plateau's phase-1 outputs
	// (PhaseOneResult.PredictedPeriod / TargetPeriod); +Inf when
	// infeasible.
	Predicted, Target float64
	// Result is the full phase-1 result recorded at MemHi; its
	// allocation is valid at every sampled memory in the segment (the
	// per-sample results differ only in Alloc.Plat.Memory).
	Result *PhaseOneResult
	// Probes and Replays are the segment's probe economics: probes
	// folded by the searches that settled this segment's samples, and
	// how many of those had to run the DP (seed probes count as replays
	// everywhere except the very first sample of the walk).
	Probes, Replays int
}

// FrontierResult is the sampled T*(M) frontier for one chain, platform
// shape and planning mode.
type FrontierResult struct {
	// DisableSpecial records the planning mode the frontier was solved
	// in (false: MadPipe; true: contiguous ablation).
	DisableSpecial bool
	// Samples are the memory limits walked, descending and deduplicated.
	Samples []float64
	// Segments tile the samples in descending order; consecutive
	// segments always differ in outcome.
	Segments []FrontierSegment
	// Probes is the total number of probes folded across all sample
	// searches; ProbesSaved the subset answered without a DP run
	// (frontier store or infeasibility floor), FrontierSaved the subset
	// answered by the frontier store alone. Replays is the number of DP
	// probes executed after the seed sample — the frontier's marginal
	// cost over its hardest cell.
	Probes, ProbesSaved, FrontierSaved, Replays int
}

// At returns the segment answering T*(mem): the segment whose sampled
// range contains mem or whose certificate floor reaches down to it.
// Returns nil above the highest sample, below the lowest, or inside an
// inter-sample gap the certificates do not bridge.
func (f *FrontierResult) At(mem float64) *FrontierSegment {
	for i := range f.Segments {
		s := &f.Segments[i]
		if mem > s.MemHi {
			return nil
		}
		if mem >= s.MemLo || mem >= s.CertLo {
			return s
		}
	}
	return nil
}

// Breakpoints returns the number of segments.
func (f *FrontierResult) Breakpoints() int { return len(f.Segments) }

// PlanFrontier computes the sampled T*(M) frontier: one phase-1 planner
// output per memory limit in mems (bytes; any order, duplicates
// ignored), sharing DP work across the whole walk. plat supplies the
// platform shape — workers, bandwidth, latency — and its Memory field
// is ignored in favor of the samples.
//
// Every sample's result is bit-identical to a cold PlanAllocation at
// that limit (same Evals, periods and allocation; only the States
// work counters shrink), and with Options.Cache set each result is
// memoized under its exact planner key, so later PlanAllocation or
// PlanAndSchedule calls at a sampled limit reuse phase 1 for free —
// this is how the experiment sweeps consume the frontier.
//
// The walk plans at probe fan 1, so Options.Parallel is forced to 1;
// callers parallelize across frontiers (rows), not within one. A caller-supplied Options.Hint is armed for frontier
// mode and must not be shared with non-frontier searches.
func PlanFrontier(c *chain.Chain, plat platform.Platform, mems []float64, opts Options) (*FrontierResult, error) {
	return PlanFrontierCtx(context.Background(), c, plat, mems, opts)
}

// PlanFrontierCtx is PlanFrontier under a context: the walk checks ctx
// before each sample's search, and each search checks it between probes
// (see PlanAllocationCtx), so cancellation lands within about one DP
// probe. A nil ctx walks without cancellation.
func PlanFrontierCtx(ctx context.Context, c *chain.Chain, plat platform.Platform, mems []float64, opts Options) (*FrontierResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	// The walk's searches run at probe fan 1: the memo entries it writes
	// and the FrontierReports built from it (served /v1/frontier bodies
	// included) are pinned to that probe schedule.
	opts.Parallel = 1
	// Chain preprocessing runs ONCE for the whole walk, and the prepare
	// fields are stripped before the per-sample searches: the hint, plan
	// memo and warm tables are all keyed by chain pointer, so every
	// sample must present the same prepared chain — per-call coarsening
	// would mint a fresh pointer each time and trip the hint's bind
	// check. Results are un-coarsened after the segments are merged.
	c, cc, err := prepared(c, opts)
	if err != nil {
		return nil, err
	}
	opts.MaxChainLength, opts.CoarsenGroup, opts.CoarsenTolerance = 0, 0, 0
	if opts.Hint == nil {
		opts.Hint = NewHint()
	}
	opts.Hint.armFrontier()

	ms := append([]float64(nil), mems...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ms)))
	uniq := ms[:0]
	for i, m := range ms {
		if m <= 0 {
			return nil, fmt.Errorf("core: frontier memory limits must be positive, got %g", m)
		}
		if i == 0 || m != uniq[len(uniq)-1] {
			uniq = append(uniq, m)
		}
	}
	ms = uniq
	if len(ms) == 0 {
		return nil, errors.New("core: frontier needs at least one memory limit")
	}

	samples := make([]frontierSample, len(ms))
	out := &FrontierResult{DisableSpecial: opts.DisableSpecial, Samples: ms}
	solved := make([]bool, len(ms))
	solve := func(i int) error {
		if solved[i] {
			return nil
		}
		solved[i] = true
		s := &samples[i]
		s.mem = ms[i]
		if opts.Hint.Dead(opts.DisableSpecial, s.mem) {
			// A search at a larger limit failed outright; this one would
			// replay the same trajectory and fail identically.
			return nil
		}
		pl := plat
		pl.Memory = s.mem
		res, err := PlanAllocationCtx(ctx, c, pl, opts)
		if err != nil {
			if errors.Is(err, platform.ErrInfeasible) {
				return nil
			}
			return err
		}
		s.res = res
		s.probes = res.Hint.Probes
		s.saved = res.Hint.ProbesSaved
		s.fsaved = res.Hint.FrontierSaved
		return nil
	}
	// Bisection visit order: both ends of the range first, then midpoints
	// recursively. Every plateau gets bracketed before its interior is
	// sampled, so interior searches fold from merged bracket records
	// instead of running the DP. The order is a fixed function of the
	// sample count — the walk is deterministic.
	var walk func(lo, hi int) error
	walk = func(lo, hi int) error {
		if hi-lo <= 1 {
			return nil
		}
		mid := lo + (hi-lo)/2
		if err := solve(mid); err != nil {
			return err
		}
		if err := walk(lo, mid); err != nil {
			return err
		}
		return walk(mid, hi)
	}
	if err := solve(0); err != nil {
		return nil, err
	}
	if err := solve(len(ms) - 1); err != nil {
		return nil, err
	}
	if err := walk(0, len(ms)-1); err != nil {
		return nil, err
	}
	for i := range samples {
		s := &samples[i]
		if i > 0 {
			// The seed search pays the full cost of the hardest cell;
			// everything after it only "replays" where a certificate was
			// invalidated.
			s.replays = s.probes - s.saved
		}
		out.Probes += s.probes
		out.ProbesSaved += s.saved
		out.FrontierSaved += s.fsaved
		out.Replays += s.replays
	}

	// Merge consecutive samples with identical outcomes into segments,
	// extending each segment's certificate floor while the per-sample
	// search intervals stay contiguous.
	for _, s := range samples {
		if n := len(out.Segments); n > 0 && sameOutcome(out.Segments[n-1].Result, s.res) {
			seg := &out.Segments[n-1]
			seg.MemLo = s.mem
			seg.Probes += s.probes
			seg.Replays += s.replays
			if s.res != nil {
				if lo, hi := searchInterval(s); lo < seg.CertLo && hi >= seg.CertLo {
					seg.CertLo = lo
				}
			}
			continue
		}
		seg := FrontierSegment{
			MemHi: s.mem, MemLo: s.mem,
			Predicted: math.Inf(1), Target: math.Inf(1),
			Probes: s.probes, Replays: s.replays,
		}
		if s.res != nil {
			seg.Feasible = true
			seg.Result = s.res
			seg.Predicted = s.res.PredictedPeriod
			seg.Target = s.res.TargetPeriod
			seg.CertLo, _ = searchInterval(s)
		}
		out.Segments = append(out.Segments, seg)
	}

	if cc != nil {
		for i := range out.Segments {
			out.Segments[i].Result = uncoarsenResult(out.Segments[i].Result, cc)
		}
	}
	if opts.Obs != nil {
		opts.Obs.Counter("frontier_breakpoints").Add(uint64(len(out.Segments)))
		opts.Obs.Counter("frontier_replays").Add(uint64(out.Replays))
		opts.Obs.Counter("frontier_probes_saved").Add(uint64(out.FrontierSaved))
	}
	return out, nil
}

// frontierSample is one walked memory limit's outcome and probe
// economics.
type frontierSample struct {
	mem     float64
	res     *PhaseOneResult // nil when infeasible
	probes  int
	saved   int
	fsaved  int
	replays int
}

// searchInterval returns a sample search's certified memory interval,
// clamped so it never claims coverage above the sample itself (the
// tracked upper edge is real but unexploited: the walk only descends).
// A degenerate interval that misses its own sample — possible in
// principle through the tracking margins — collapses to the sample
// point, which the search did verify.
func searchInterval(s frontierSample) (lo, hi float64) {
	lo, hi = s.res.Hint.MemLo, s.res.Hint.MemHi
	if !(lo <= s.mem && s.mem < hi) {
		return s.mem, math.Nextafter(s.mem, math.MaxFloat64)
	}
	if hi > math.Nextafter(s.mem, math.MaxFloat64) {
		hi = math.Nextafter(s.mem, math.MaxFloat64)
	}
	return lo, hi
}

// sameOutcome reports whether two sample results describe the same
// frontier plateau: equal feasibility, bit-equal periods and an
// identical allocation shape (spans and processor assignment).
func sameOutcome(a, b *PhaseOneResult) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.PredictedPeriod == b.PredictedPeriod && a.TargetPeriod == b.TargetPeriod &&
		allocSame(a.Alloc, b.Alloc)
}

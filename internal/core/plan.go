package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/obs"
	"madpipe/internal/partition"
	"madpipe/internal/platform"
)

// Options configures the MadPipe planner.
type Options struct {
	// Disc sets the DP grids; zero value means the paper's defaults.
	Disc Discretization
	// Iterations is K, the number of binary-search rounds of Algorithm 1
	// (paper: 10). Zero means the default. With Parallel > 1 it is the
	// total probe budget, so the amount of DP work is unchanged.
	Iterations int
	// DisableSpecial removes the special processor, restricting the DP to
	// contiguous allocations on all P processors — the memory-aware
	// contiguous ablation.
	DisableSpecial bool
	// MaxChainLength coarsens longer chains before planning (0 = no
	// coarsening). Coarsening preserves total compute, weights and stored
	// activations exactly.
	MaxChainLength int
	// CoarsenGroup enables run coarsening before planning (after any
	// MaxChainLength pass): maximal runs of contiguous near-uniform
	// layers — adjacent layers within CoarsenTolerance of the run's
	// head — merge into super-layers of at most CoarsenGroup original
	// layers each, and every result is un-coarsened back to original
	// layer indices on the way out. 0 (the default) disables the pass;
	// 1 is the identity granularity (detects runs but merges nothing).
	// Aggregated costs are bit-exact samples of the original chain's
	// prefix sums (chain.CoarsenRuns), so the coarse problem is exactly
	// the original problem restricted to super-layer-boundary cuts:
	// periods and memory figures carry over bit-for-bit; only cut
	// positions interior to a super-layer are forgone. This is the
	// transformer-chain switch — a near-uniform 2000-layer profile
	// plans at the granularity the caller picks instead of paying the
	// full state space.
	CoarsenGroup int
	// CoarsenTolerance is the relative per-field tolerance of the run
	// detector (|a-b| <= tol*max(|a|,|b|) on every profiled quantity).
	// 0 demands bit-equal layers. Only consulted when CoarsenGroup > 0.
	CoarsenTolerance float64
	// Weights selects the weight-versioning policy; the zero value is
	// the paper's PipeDream-2BW discipline (3W per stage).
	Weights chain.WeightPolicy
	// Parallel is Algorithm 1's probe fan-out budget. 0 means auto: use
	// GOMAXPROCS (clamped to at least 1). 1 runs the paper's sequential
	// bisection; larger budgets run min(Parallel, 4) bracket probes per
	// round concurrently, each on its own DP table lease. Every probe
	// runs the same sequential DP solver, so a probe at a given T̂ is
	// bit-identical at every setting. Algorithm 1's outputs are
	// deterministic for a given fan; different fans probe different
	// bracket points, so they can settle on a different (equally valid)
	// target period. Budgets above 4 therefore plan exactly like 4.
	Parallel int
	// Obs attaches an observability registry. When set, every DP run
	// collects a DPStats counter set (states evaluated vs pruned per
	// pruner, table reuse), Algorithm 1 records a probe timeline with
	// bracket convergence on each Eval, and per-probe durations
	// accumulate in the registry's "probe" phase. nil — the default —
	// disables all instrumentation: the hot paths then pay one
	// predicted-not-taken branch and zero extra allocations, and all
	// planner outputs are bit-identical either way.
	Obs *obs.Registry
	// Cache, when set, carries planner state across PlanAllocation calls:
	// a result memo (identical inputs return the recorded result without
	// re-running Algorithm 1) and warm DP tables whose death certificates
	// survive between calls that share a chain, communication terms,
	// discretization, special mode and weight policy. Planner outputs
	// are bit-identical with or without a cache;
	// only the per-probe work counters (Eval.States, DPStats) shrink on
	// warm runs, since adopted states are not re-evaluated. See
	// PlannerCache.
	Cache *PlannerCache
	// ColdTables forces table leases from the shared pool even when Cache
	// is set, bypassing the cache's warm stacks in both directions (the
	// returned table goes back to the pool, not the cache). Warmth is a
	// per-lease property: concurrent calls on one cache may mix warm and
	// cold leases freely. The result memo is unaffected.
	ColdTables bool
	// Hint, when set, carries exact-replay knowledge across calls that
	// differ only in the memory limit — infeasibility floors that answer
	// provably infeasible probes without running the DP, and cell-level
	// death certificates. Outputs are bit-identical with or without a
	// hint: the probe T̂ trajectory never changes, only the DP work needed
	// to answer it (floor-answered probes report zero States). See Hint.
	// A frontier-armed hint (PlanFrontier) additionally reuses feasible
	// probe results across memory limits, at any probe fan.
	Hint *Hint
}

// Normalized returns the options with the planner's defaults filled in
// (discretization, iterations) — the effective option set a call runs
// with. Serving layers key memos by normalized options so "defaults
// spelled out" and "defaults left zero" hash identically. Parallel is
// NOT resolved (0 still means GOMAXPROCS); callers that need a
// machine-stable key must pin it explicitly.
func (o Options) Normalized() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Disc == (Discretization{}) {
		o.Disc = DefaultDiscretization()
	}
	if o.Iterations == 0 {
		o.Iterations = 10
	}
	return o
}

// resolveParallel maps Options.Parallel to a concrete worker count:
// 0 selects GOMAXPROCS, anything else is clamped to at least 1.
func resolveParallel(p int) int {
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// maxProbeFan caps the bracket probes one Algorithm 1 round runs
// concurrently.
const maxProbeFan = 4

// MaxIterations is the largest probe budget the search reserves Evals
// for and the planning daemon admits: by then bisection has narrowed the
// bracket to adjacent floats, and further probes repeat earlier targets.
const MaxIterations = 64

// probeFan is the number of bracket probes per round a resolved worker
// budget buys.
func probeFan(w int) int { return min(w, maxProbeFan) }

// Eval records one iteration of Algorithm 1.
type Eval struct {
	// That is the target period T̂ probed.
	That float64
	// Raw is MadPipe-DP(T̂); +Inf when no allocation fits memory.
	Raw float64
	// Effective is max(Raw, T̂), the period the allocation can promise.
	Effective float64
	// States is the number of DP states explored.
	States int
	// LB and UB are the search bracket immediately after this probe
	// folded — the lb/ub convergence trace of Algorithm 1.
	LB, UB float64
	// Slot is the probe slot (table lease) that ran this probe: its
	// position within its bracket round, always 0 at probe fan 1.
	Slot int
	// StartNS and DurNS position the probe on the planning wall clock,
	// relative to PlanAllocation entry. Recorded only when Options.Obs is
	// set; zero otherwise.
	StartNS, DurNS int64
	// Stats is the probe's DP counter set (populated only when
	// Options.Obs is set).
	Stats DPStats
	// Alloc is the allocation this iteration produced (nil when
	// infeasible). The scheduling phase evaluates every distinct
	// candidate, since the special processor's memory under-estimate can
	// make the nominally best Effective value unreachable in practice.
	Alloc *partition.Allocation
}

// PhaseOneResult is the allocation produced by the first phase of
// MadPipe (Algorithm 1).
type PhaseOneResult struct {
	// Alloc is the best allocation found.
	Alloc *partition.Allocation
	// PredictedPeriod is min_i max(DP(T̂_i), T̂_i) — the dashed line of
	// Figure 6.
	PredictedPeriod float64
	// TargetPeriod is the T̂ that produced the best allocation; it is the
	// period at which the memory estimates of the allocation hold.
	TargetPeriod float64
	// Evals logs every probe, in the deterministic fold order.
	Evals []Eval
	// Hint reports the search's final bracket and probe economics.
	Hint ResultHint
}

// DP exposes a single MadPipe-DP invocation at a fixed target period,
// mainly for analysis and tests; PlanAllocation is the full Algorithm 1.
func DP(c *chain.Chain, plat platform.Platform, that float64, opts Options) (*DPResult, error) {
	opts = opts.withDefaults()
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	c, cc, err := prepared(c, opts)
	if err != nil {
		return nil, err
	}
	res, err := runDP(c, plat, that, dpConfig{
		disc:           opts.Disc,
		disableSpecial: opts.DisableSpecial,
		weights:        opts.Weights,
		obs:            opts.Obs,
	})
	if err != nil || cc == nil || res.Alloc == nil {
		return res, err
	}
	res.Alloc = uncoarsenAlloc(res.Alloc, cc)
	return res, nil
}

// prepared applies the planner's chain preprocessing: the greedy
// MaxChainLength cap first, then run coarsening (CoarsenGroup). The
// returned provenance is nil when run coarsening is off or merged
// nothing; when set, the planner runs entirely in coarse space — memo,
// warm tables and hints all key on the coarse chain — and results are
// un-coarsened on the way out. With a PlannerCache attached the coarse
// chain for a given (chain, tolerance, group) is memoized, so repeated
// calls present a stable pointer to those pointer-keyed stores.
func prepared(c *chain.Chain, opts Options) (*chain.Chain, *chain.Coarsened, error) {
	if opts.MaxChainLength > 0 {
		g, err := c.Coarsen(opts.MaxChainLength)
		if err != nil {
			return nil, nil, err
		}
		c = g
	}
	if opts.CoarsenGroup <= 0 {
		return c, nil, nil
	}
	cc, err := coarsenRunsCached(c, opts)
	if err != nil {
		return nil, nil, err
	}
	if cc.Identity() {
		return c, nil, nil
	}
	return cc.Chain, cc, nil
}

// uncoarsenAlloc maps one coarse-space allocation onto the original
// chain. Stage quantities are bit-identical on both sides (coarse
// prefix sums are samples of the original's), so the allocation stays
// valid as-is; only the span indices change.
func uncoarsenAlloc(a *partition.Allocation, cc *chain.Coarsened) *partition.Allocation {
	return &partition.Allocation{
		Chain: cc.From, Plat: a.Plat,
		Spans: cc.UncoarsenAll(a.Spans), Procs: a.Procs, Weights: a.Weights,
	}
}

// uncoarsenResult maps a coarse-space phase-1 result back onto the
// original chain. Allocation sharing is preserved (a result and the
// Evals that produced it point at one Allocation before and after), and
// the Evals slice is rebuilt fresh — memo hits share their backing
// array with the cache, which must keep the coarse originals. Periods,
// the probe trajectory and all stats are untouched: coarse aggregation
// is bit-exact, so they already are the original chain's numbers.
func uncoarsenResult(res *PhaseOneResult, cc *chain.Coarsened) *PhaseOneResult {
	if cc == nil || res == nil {
		return res
	}
	seen := make(map[*partition.Allocation]*partition.Allocation, 4)
	conv := func(a *partition.Allocation) *partition.Allocation {
		if a == nil {
			return nil
		}
		if u, ok := seen[a]; ok {
			return u
		}
		u := uncoarsenAlloc(a, cc)
		seen[a] = u
		return u
	}
	out := *res
	out.Alloc = conv(res.Alloc)
	out.Evals = make([]Eval, len(res.Evals))
	for i, ev := range res.Evals {
		ev.Alloc = conv(ev.Alloc)
		out.Evals[i] = ev
	}
	return &out
}

// PlanAllocation runs the first phase of MadPipe: Algorithm 1's modified
// binary search over the target period T̂, keeping the allocation with
// the best effective period max(MadPipe-DP(T̂), T̂). With Options.Parallel
// > 1 each round probes several bracket points concurrently; the probe
// budget and the deterministic fold keep results reproducible.
func PlanAllocation(c *chain.Chain, plat platform.Platform, opts Options) (*PhaseOneResult, error) {
	return PlanAllocationCtx(context.Background(), c, plat, opts)
}

// PlanAllocationCtx is PlanAllocation under a context: the search checks
// ctx before every bracket round (every probe at fan 1), so a
// deadline or cancellation stops the planner within roughly one DP
// probe's duration — a single probe is never interrupted mid-run, which
// keeps every folded probe bit-identical to the uncancelled search. A
// nil ctx plans without cancellation. The CLI's -timeout flag and the
// madpiped daemon's per-request deadlines both come through here, so
// there is exactly one cancellation path to test.
func PlanAllocationCtx(ctx context.Context, c *chain.Chain, plat platform.Platform, opts Options) (*PhaseOneResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A request span riding the context (the madpiped serving path)
	// attributes this search's wall-clock to its "plan" phase. The
	// accumulator is additive, so a frontier walk or a schedule request
	// issuing several searches records their genuine DP total. Without a
	// span this costs one context lookup per plan, never per probe.
	if sp := obs.SpanFrom(ctx); sp != nil {
		planT0 := time.Now()
		defer func() { sp.Add(obs.SpanPlan, time.Since(planT0)) }()
	}
	opts = opts.withDefaults()
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	c, cc, err := prepared(c, opts)
	if err != nil {
		return nil, err
	}
	if err := planCtxErr(ctx, 0); err != nil {
		return nil, err
	}

	// The hint is bound to the row signature before the memo check: a
	// mis-shared hint must fail loudly even on memo hits.
	opts.Hint.bind(hintKeyFor(c, plat, opts))

	var mkey planKey
	if opts.Cache != nil {
		mkey = planKeyFor(c, plat, opts)
		if res, ok := opts.Cache.getPlan(mkey); ok {
			return uncoarsenResult(res, cc), nil
		}
	}

	s := newSearch(c, plat, opts)
	defer s.release()
	if err := s.run(ctx); err != nil {
		return nil, err
	}
	res := s.res
	res.Hint.Bracket = Bracket{Lo: s.lb, Hi: s.ub}
	if s.frontier {
		res.Hint.MemLo, res.Hint.MemHi = s.smlo, s.smhi
	}
	res.Hint.Probes = len(res.Evals)
	flushPlan(opts.Obs, res.Hint.Probes, res.Hint.ProbesSaved)
	if res.Alloc == nil {
		// Every probe was infeasible: the trajectory replays identically at
		// any smaller memory limit (infeasible folds never move ub), so the
		// whole cell is dead there — lift the per-probe floors to a
		// cell-level death certificate.
		opts.Hint.recordDead(opts.DisableSpecial, plat.Memory)
		return nil, fmt.Errorf("core: no feasible allocation in %d iterations: %w",
			opts.Iterations, platform.ErrInfeasible)
	}
	if opts.Cache != nil {
		// The memo stores the coarse-space result: memo keys are coarse
		// chain pointers, and hits un-coarsen on the way out exactly like
		// this return does.
		opts.Cache.putPlan(mkey, res)
	}
	return uncoarsenResult(res, cc), nil
}

// hintKeyFor derives the row signature a hint is bound to; opts must
// already be normalized (withDefaults).
func hintKeyFor(c *chain.Chain, plat platform.Platform, opts Options) hintKey {
	return hintKey{
		c:          c,
		workers:    plat.Workers,
		latency:    plat.Latency,
		bandwidth:  plat.Bandwidth,
		disc:       opts.Disc,
		iterations: opts.Iterations,
		weights:    opts.Weights,
		parallel:   resolveParallel(opts.Parallel),
	}
}

// leaseTableFor acquires the DP table for one PlanAllocation: through
// the cache (warm unless the lease opts out via ColdTables) when one is
// configured, from the shared pool otherwise.
func leaseTableFor(c *chain.Chain, plat platform.Platform, opts Options) (*dpTable, tableKey) {
	k := tableKeyFor(c, plat, opts)
	if opts.Cache != nil {
		return opts.Cache.leaseTable(k, opts.ColdTables), k
	}
	return acquireTable(), k
}

func returnTableFor(t *dpTable, k tableKey, opts Options) {
	if opts.Cache != nil {
		opts.Cache.returnTable(k, t, opts.ColdTables, opts.Obs)
		return
	}
	releaseTable(t, opts.Obs)
}

// search is one run of Algorithm 1: bracket rounds of up to fan probes
// each, folded in ascending-T̂ order until the probe budget is spent or
// the bracket closes. At fan 1 this is the paper's bisection. Probe slot
// i leases table i for the whole search: across rounds the slot's
// probes reuse the table's columns, gmax memo and armed death
// certificates, so later rounds start warm. The hint is consulted
// and updated only on the coordinating goroutine: hint-answered probes
// never run the DP, and floors and frontier records are written during
// the fold.
type search struct {
	c         *chain.Chain
	plat      platform.Platform
	opts      Options
	cfg       dpConfig
	fan       int
	frontier  bool
	planStart time.Time // anchors the probe timeline (Eval.StartNS)
	tkey      tableKey  // slot 0's lease key

	// lb and ub are the bracket. smlo/smhi accumulate the search's
	// memory-validity interval [MemLo, MemHi) in frontier mode: the
	// intersection of every folded probe's own interval.
	lb, ub, smlo, smhi float64
	res                *PhaseOneResult

	// Per-round scratch, allocated once with the search: cands holds
	// the round's probe targets (backed by candBuf), slots[i] probes
	// cands[i].
	slots   [maxProbeFan]probeSlot
	candBuf [maxProbeFan]float64
	cands   []float64
	wg      sync.WaitGroup
}

// probeSlot is one probe lane: the table it leases for the whole search
// and the current round's probe.
type probeSlot struct {
	tab        *dpTable
	that       float64
	dp         *DPResult
	err        error
	ran        bool // dp came from a DP run, not from the hint
	start, dur int64
}

// newSearch leases the search's tables and sets the initial bracket.
// Slot 0 is the cache-backed lease: the fold order makes it the slot
// whose probes anchor the search, so it benefits most from arriving
// warm (with a PlannerCache, certificates from a previous compatible
// call are still live; certArm re-arms only on a memory-limit change).
// The other slots lease cold tables from the shared pool.
func newSearch(c *chain.Chain, plat platform.Platform, opts Options) *search {
	s := &search{
		c: c, plat: plat, opts: opts,
		fan:       probeFan(resolveParallel(opts.Parallel)),
		frontier:  opts.Hint.frontierArmed(),
		planStart: time.Now(),
		lb:        c.TotalU() / float64(plat.Workers),
		ub:        c.TotalU() + c.TotalCommTimeAlphaBeta(plat.Latency, plat.Bandwidth),
		smhi:      inf,
		// A search folds at most Iterations probes; reserving them up
		// front (bounded, for absurd budgets) spares the append growth.
		res: &PhaseOneResult{PredictedPeriod: math.Inf(1), Evals: make([]Eval, 0, min(max(opts.Iterations, 0), MaxIterations))},
	}
	// Certificate adoption stays armed in frontier mode too — adoption
	// never changes answers (TestCertReuseMatchesColdProbes), and
	// disabling it would make every frontier probe pay the full DP.
	// Soundness of the tracked memory intervals is preserved per run
	// instead: a probe that adopted any certificate collapses its claim
	// to the limit it verified (dpRun.mtrack), and the frontier store's
	// bracket merging re-widens coverage from outcome monotonicity alone.
	s.cfg = dpConfig{disc: opts.Disc, disableSpecial: opts.DisableSpecial, weights: opts.Weights, obs: opts.Obs, mtrack: s.frontier}
	s.slots[0].tab, s.tkey = leaseTableFor(c, plat, opts)
	for i := 1; i < s.fan; i++ {
		s.slots[i].tab = acquireTable()
	}
	for i := 0; i < s.fan; i++ {
		s.slots[i].tab.certArm(plat.Memory)
	}
	return s
}

// release returns the search's tables, the highest slot first.
func (s *search) release() {
	for i := s.fan - 1; i > 0; i-- {
		releaseTable(s.slots[i].tab, s.opts.Obs)
	}
	returnTableFor(s.slots[0].tab, s.tkey, s.opts)
}

// run executes the bracket rounds.
func (s *search) run(ctx context.Context) error {
	var err error
	labelPhase("probe", func() {
		budget := s.opts.Iterations
		for first := true; budget > 0 && (first || s.ub > s.lb); first = false {
			if err = planCtxErr(ctx, len(s.res.Evals)); err != nil {
				return
			}
			k := min(s.fan, budget)
			budget -= k
			s.cands = bracketCandidates(s.candBuf[:0], s.lb, s.ub, k, first, s.fan == 1)
			if err = s.round(); err != nil {
				return
			}
		}
	})
	return err
}

// round answers what it can of one round's candidates from the hint,
// runs the rest concurrently (the last one on this goroutine) and folds
// all of them in candidate order.
func (s *search) round() error {
	last := -1
	for i, that := range s.cands {
		sl := &s.slots[i]
		*sl = probeSlot{tab: sl.tab, that: that}
		if sl.dp = s.answer(that); sl.dp != nil {
			continue
		}
		if last >= 0 {
			s.wg.Add(1)
			go func(sl *probeSlot) {
				defer s.wg.Done()
				s.probe(sl)
			}(&s.slots[last])
		}
		last = i
	}
	if last >= 0 {
		s.probe(&s.slots[last])
	}
	s.wg.Wait()
	for i := range s.cands {
		sl := &s.slots[i]
		if sl.err != nil {
			return sl.err
		}
		s.fold(i, sl)
	}
	return nil
}

// answer returns the hint's result for a probe target without running
// the DP, or nil. A neighbor cell's floor proves the probe infeasible at
// this (smaller or equal) memory limit; a feasible probe recorded at
// another limit whose validity interval contains this one replays its
// period and allocation, re-targeted at this platform. Either way the
// trajectory and result are bit-identical to the cold search — only
// States drops to zero.
func (s *search) answer(that float64) *DPResult {
	h, mode, mem := s.opts.Hint, s.opts.DisableSpecial, s.plat.Memory
	if h.covered(mode, that, mem) {
		s.res.Hint.ProbesSaved++
		if s.frontier {
			if fm, ok := h.floorAt(mode, that); ok {
				s.pin(0, math.Nextafter(fm, inf))
			}
		}
		return &DPResult{Period: math.Inf(1)}
	}
	if dp, ok := h.frontierCovered(mode, that, mem, s.plat); ok {
		s.res.Hint.ProbesSaved++
		s.res.Hint.FrontierSaved++
		s.pin(dp.MLo, dp.MHi)
		return dp
	}
	return nil
}

// probe runs one DP probe on its slot's table.
func (s *search) probe(sl *probeSlot) {
	var t0 time.Time
	if s.opts.Obs != nil {
		t0 = time.Now()
	}
	sl.dp, sl.err = runDPWith(sl.tab, s.c, s.plat, sl.that, s.cfg)
	sl.ran = true
	if s.opts.Obs != nil {
		d := time.Since(t0)
		s.opts.Obs.Phase("probe").Add(d)
		sl.start = t0.Sub(s.planStart).Nanoseconds()
		sl.dur = d.Nanoseconds()
	}
}

// pin narrows the search's memory-validity interval.
func (s *search) pin(lo, hi float64) {
	if lo > s.smlo {
		s.smlo = lo
	}
	if hi < s.smhi {
		s.smhi = hi
	}
}

// fold records a DP-run probe in the hint, applies the probe to the
// bracket and the best result, and logs it with the bracket it left.
func (s *search) fold(slot int, sl *probeSlot) {
	dp, that, res := sl.dp, sl.that, s.res
	if sl.ran {
		if dp.Alloc == nil {
			s.opts.Hint.record(s.opts.DisableSpecial, that, s.plat.Memory)
			if s.frontier {
				// The floor just recorded is exact for every M' <= Memory
				// (see Hint); below-only coverage is all a downward
				// frontier walk needs.
				s.pin(0, math.Nextafter(s.plat.Memory, inf))
			}
		} else if s.frontier {
			s.opts.Hint.frontierRecord(s.opts.DisableSpecial, that, dp)
			s.pin(dp.MLo, dp.MHi)
		}
	}
	ev := Eval{
		That: that, Raw: dp.Period, Effective: math.Max(dp.Period, that),
		States: dp.States, Slot: slot, StartNS: sl.start, DurNS: sl.dur,
		Stats: dp.Stats, Alloc: dp.Alloc,
	}
	if dp.Alloc == nil {
		// Infeasible: every solution needs a larger target period.
		ev.Raw = math.Inf(1)
		ev.Effective = math.Inf(1)
		s.lb = math.Max(s.lb, that)
	} else {
		if ev.Effective < res.PredictedPeriod {
			res.PredictedPeriod = ev.Effective
			res.TargetPeriod = that
			res.Alloc = dp.Alloc
		}
		s.lb = math.Max(s.lb, math.Min(dp.Period, that))
		s.ub = math.Min(s.ub, ev.Effective)
	}
	ev.LB, ev.UB = s.lb, s.ub
	res.Evals = append(res.Evals, ev)
}

// bracketCandidates appends one round's k probe targets to out. With
// bisect set (probe fan 1) this is the paper's bisection: the first
// probe sits at the lower bound and every later one at (lb+ub)/2.
// Wider fans anchor the first round at lb as well and sample interior
// points lb + (ub-lb)·i/(k+1) — for k == 1, when a fan-3 search reaches
// a one-probe round, the incremental midpoint lb + (ub-lb)/2, up to one
// ulp from (lb+ub)/2. Two invariants the search relies on:
//
//   - Candidates never leave [lb, ub]: ub is clamped up to lb first and
//     the interpolation weight i/(k+1) lies in (0, 1), so a fold that
//     tightened the bracket cannot push a probe outside it. (Bisection
//     midpoints are only taken while ub > lb.)
//   - At a degenerate bracket (lb == ub, produced when a feasible fold
//     lands Effective exactly on the lower bound with budget left)
//     every interpolated candidate equals lb exactly: ub-lb is exactly
//     zero and lb + 0·w == lb in floating point for the positive
//     periods probed here, so a round re-probes lb instead of drifting
//     off the bracket by an ulp. TestBracketCandidatesDegenerate pins
//     both.
func bracketCandidates(out []float64, lb, ub float64, k int, first, bisect bool) []float64 {
	if first {
		out = append(out, lb)
		k--
	}
	if bisect {
		if !first {
			out = append(out, (lb+ub)/2)
		}
		return out
	}
	if ub < lb {
		ub = lb
	}
	for i := 1; i <= k; i++ {
		out = append(out, lb+(ub-lb)*float64(i)/float64(k+1))
	}
	return out
}

// planCtxErr translates a done context into the planner's cancellation
// error, recording how many probes had folded when the search stopped.
// A nil or live context costs one branch.
func planCtxErr(ctx context.Context, probes int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: planning cancelled after %d probes: %w", probes, err)
	}
	return nil
}

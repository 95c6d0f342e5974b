package core

import (
	"sync"

	"madpipe/internal/chain"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
)

// PlannerCache carries planner state across PlanAllocation calls so that
// repeated and related searches stop paying for work that is provably
// unchanged. It holds two stores:
//
//   - a result memo, keyed by the full planner input (chain identity,
//     platform, discretization, iterations, special-processor mode,
//     weight policy, resolved worker count, observability). A memo hit
//     returns the recorded PhaseOneResult outright — this is what
//     collapses PlanAndSchedule's repeated phase-1 searches (the
//     portfolio fallback re-plans the same inputs) and a sweep harness's
//     per-cell MadPipe/contiguous double-planning to one DP search per
//     distinct input.
//
//   - warm DP tables, keyed by everything a table's death certificates
//     depend on EXCEPT the processor count and the memory limit: a DP
//     state (l, p, t_P, m_P, V) never mentions the total worker count,
//     and the p-outermost index layout keeps packed indices stable when
//     nP changes, so death certificates recorded while planning one
//     sweep cell remain sound for cells at any other P. The memory limit DOES change what the certificates assert;
//     certArm compares it on lease and re-arms (epoch bump) on mismatch,
//     which still preserves the T̂-independent hoists and the gmax memo
//     (both self-keyed by their own inputs, including memory).
//
// Chains are keyed by pointer identity: callers must present the same
// *chain.Chain for hits, which is the natural shape for a sweep harness
// that coarsens each network once and re-plans it across a grid.
//
// The cache is safe for concurrent use, and warmth is a per-lease
// property: each leaseTable call independently asks for a warm table or
// a cold one (Options.ColdTables), so concurrent callers with different
// needs share one cache without mutating its state. Warm leases are
// race-free under concurrency — the stack hands each pooled table to
// exactly one caller — but per-probe work stats then depend on which
// caller warmed a table first; harnesses that promise deterministic
// stats at any parallelism level shard caches per worker instead (see
// internal/expt).
type PlannerCache struct {
	mu     sync.Mutex
	plans  map[planKey]*PhaseOneResult
	tables map[tableKey][]*dpTable
	// coarsens memoizes run-coarsening provenance per (chain, tolerance,
	// group): the plan memo, warm tables and hints are all keyed by
	// chain pointer, so repeated planner calls must present the SAME
	// coarse chain pointer to hit them — re-running CoarsenRuns per call
	// would mint a fresh chain every time and keep those stores
	// permanently cold.
	coarsens map[coarsenKey]*chain.Coarsened
	// warmLeases/coldLeases count leaseTable outcomes: a pop from a warm
	// stack vs a fresh table from the shared pool (including leases that
	// asked for cold). Their ratio is the cache's warm-hit rate.
	warmLeases, coldLeases uint64
}

// planKey identifies one PlanAllocation computation completely: two
// calls with equal keys return bit-identical results (the planner is
// deterministic for a fixed input, including the probe schedule at a
// fixed resolved worker count).
type planKey struct {
	c              *chain.Chain
	plat           platform.Platform
	disc           Discretization
	iterations     int
	disableSpecial bool
	weights        chain.WeightPolicy
	workers        int
	observed       bool
}

// tableKey identifies the inputs a DP table's death certificates are
// conditioned on. The processor count is deliberately absent (state
// semantics are P-independent; see dpTable.idx) and so is the memory
// limit (guarded dynamically by certArm, so that cells at a new M still
// inherit the table's T̂-independent caches).
type tableKey struct {
	c              *chain.Chain
	latency        float64
	bandwidth      float64
	disc           Discretization
	disableSpecial bool
	weights        chain.WeightPolicy
}

const (
	// planMemoCap bounds the memo; on overflow the whole memo is dropped
	// (recomputation is always sound) rather than tracking recency.
	planMemoCap = 512
	// tableStackCap bounds warm tables retained per key; overflow goes
	// back to the shared pool through the trim policy.
	tableStackCap = 16
)

// coarsenKey identifies one run-coarsening computation (deterministic
// for a fixed chain and setting, so the memo can hand every caller the
// same provenance object).
type coarsenKey struct {
	c     *chain.Chain
	tol   float64
	group int
}

// NewPlannerCache returns an empty cache.
func NewPlannerCache() *PlannerCache {
	return &PlannerCache{
		plans:    make(map[planKey]*PhaseOneResult),
		tables:   make(map[tableKey][]*dpTable),
		coarsens: make(map[coarsenKey]*chain.Coarsened),
	}
}

// coarsenRunsCached resolves the run-coarsening provenance for one
// planner call: through the cache's memo when one is attached (pointer
// stability for the chain-keyed stores), fresh otherwise.
func coarsenRunsCached(c *chain.Chain, opts Options) (*chain.Coarsened, error) {
	pc := opts.Cache
	if pc == nil {
		return c.CoarsenRuns(opts.CoarsenTolerance, opts.CoarsenGroup)
	}
	k := coarsenKey{c: c, tol: opts.CoarsenTolerance, group: opts.CoarsenGroup}
	pc.mu.Lock()
	cc, ok := pc.coarsens[k]
	pc.mu.Unlock()
	if ok {
		return cc, nil
	}
	cc, err := c.CoarsenRuns(k.tol, k.group)
	if err != nil {
		return nil, err
	}
	pc.mu.Lock()
	if prev, ok := pc.coarsens[k]; ok {
		cc = prev // a concurrent call won the race; adopt its pointer
	} else {
		pc.coarsens[k] = cc
	}
	pc.mu.Unlock()
	return cc, nil
}

// CacheStats is a point-in-time census of a PlannerCache, for capacity
// accounting in long-lived holders (the madpiped daemon's per-worker
// shards release a cache whose TableKeys outgrow their bound, since the
// pointer-keyed maps never forget a chain on their own).
type CacheStats struct {
	// Plans is the number of memoized PhaseOneResults.
	Plans int `json:"plans"`
	// TableKeys is the number of distinct warm-table keys held, and
	// TablesPooled the total tables parked across their stacks.
	TableKeys    int `json:"table_keys"`
	TablesPooled int `json:"tables_pooled"`
	// WarmLeases/ColdLeases mirror LeaseStats.
	WarmLeases uint64 `json:"warm_leases"`
	ColdLeases uint64 `json:"cold_leases"`
}

// Stats returns the cache's current census.
func (pc *PlannerCache) Stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	s := CacheStats{
		Plans:      len(pc.plans),
		TableKeys:  len(pc.tables),
		WarmLeases: pc.warmLeases,
		ColdLeases: pc.coldLeases,
	}
	for _, stack := range pc.tables {
		s.TablesPooled += len(stack)
	}
	return s
}

// LeaseStats reports how many table leases were served warm (a pooled
// table with live death certificates) vs cold (a fresh table from the
// shared pool, including leases that asked for cold). Deterministic for
// a fixed call sequence, which per-worker sharding guarantees.
func (pc *PlannerCache) LeaseStats() (warm, cold uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.warmLeases, pc.coldLeases
}

// getPlan returns the memoized result for k, as a shallow copy whose
// Evals slice is capacity-clipped: callers may append to it (the
// portfolio fold does) without aliasing the memo's backing array.
func (pc *PlannerCache) getPlan(k planKey) (*PhaseOneResult, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	res, ok := pc.plans[k]
	if !ok {
		return nil, false
	}
	cp := *res
	cp.Evals = cp.Evals[:len(cp.Evals):len(cp.Evals)]
	return &cp, true
}

func (pc *PlannerCache) putPlan(k planKey, res *PhaseOneResult) {
	cp := *res
	cp.Evals = cp.Evals[:len(cp.Evals):len(cp.Evals)]
	pc.mu.Lock()
	if len(pc.plans) >= planMemoCap {
		clear(pc.plans)
	}
	pc.plans[k] = &cp
	pc.mu.Unlock()
}

// leaseTable hands out a table for key k: a warm one (certificate
// stores alive from a previous lease on the same key) when available
// and the caller didn't ask for cold, otherwise a fresh table from the
// shared pool. The caller must pair it with returnTable and arm
// certificates via certArm, never certBegin — certBegin would discard
// exactly the state a warm lease preserves.
func (pc *PlannerCache) leaseTable(k tableKey, cold bool) *dpTable {
	pc.mu.Lock()
	if !cold {
		if s := pc.tables[k]; len(s) > 0 {
			t := s[len(s)-1]
			s[len(s)-1] = nil
			pc.tables[k] = s[:len(s)-1]
			pc.warmLeases++
			pc.mu.Unlock()
			return t
		}
	}
	pc.coldLeases++
	pc.mu.Unlock()
	return acquireTable()
}

// returnTable retains t for future leases on k, or sends it back to the
// shared pool when the per-key stack is full or the lease was cold (a
// cold caller's certificates reflect work the pool's trim policy should
// reclaim, not future warmth this cache promised anyone).
func (pc *PlannerCache) returnTable(k tableKey, t *dpTable, cold bool, reg *obs.Registry) {
	pc.mu.Lock()
	if !cold && len(pc.tables[k]) < tableStackCap {
		pc.tables[k] = append(pc.tables[k], t)
		pc.mu.Unlock()
		return
	}
	pc.mu.Unlock()
	releaseTable(t, reg)
}

// Release drains every pooled table back to the shared pool (applying
// the trim policy) and drops the memo. Call it when a sweep is done
// with a chain; using the cache afterwards is still valid, just cold.
func (pc *PlannerCache) Release(reg *obs.Registry) {
	pc.mu.Lock()
	tables := pc.tables
	pc.tables = make(map[tableKey][]*dpTable)
	clear(pc.plans)
	clear(pc.coarsens)
	pc.mu.Unlock()
	for _, s := range tables {
		for _, t := range s {
			releaseTable(t, reg)
		}
	}
}

// tableKeyFor derives the table-compatibility key for one planner call.
func tableKeyFor(c *chain.Chain, plat platform.Platform, opts Options) tableKey {
	return tableKey{
		c:              c,
		latency:        plat.Latency,
		bandwidth:      plat.Bandwidth,
		disc:           opts.Disc,
		disableSpecial: opts.DisableSpecial,
		weights:        opts.Weights,
	}
}

// planKeyFor derives the memo key for one planner call; opts must
// already be normalized (withDefaults).
func planKeyFor(c *chain.Chain, plat platform.Platform, opts Options) planKey {
	return planKey{
		c:              c,
		plat:           plat,
		disc:           opts.Disc,
		iterations:     opts.Iterations,
		disableSpecial: opts.DisableSpecial,
		weights:        opts.Weights,
		workers:        resolveParallel(opts.Parallel),
		observed:       opts.Obs != nil,
	}
}

package core

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"madpipe/internal/obs"
)

// The DP table replaces the hash-map memo of the original
// implementation: one packed index space over the states (l, p, t_P
// index, m_P index, V index), carved into fixed-size blocks of 32-byte
// state records (dpState) that are allocated on first write. The lazy
// solver touches a shape-dependent fraction of that space, so
// reachability pruning — kmin floors, monotone breaks, death
// certificates — translates directly into bytes never allocated: a
// 2000-layer op-granularity profile under the paper's special-mode
// grids is a multi-GB virtual plane of which the solver touches a few
// percent. Presence is tracked with a per-state epoch stamp, so
// re-probing the same planner at a new target period T̂ only bumps the
// stamp instead of clearing memory.
// Tables are recycled through a sync.Pool so a full Algorithm 1 run —
// and a whole sweep — reuses its blocks.

// Block geometry: 1024 states per block = 32 KB. The l-innermost index
// layout means one reachable (p, t_P, m_P, V) combo touches a contiguous
// l-span, so the block size bounds how much dead space a short span
// strands: 1024 states stays well under a long chain's per-combo column
// (nL runs in the thousands) while still amortizing the per-access
// indirection (one extra load and nil check) across hundreds of resident
// states.
const (
	blockBits = 10
	blockSize = 1 << blockBits
	blockMask = blockSize - 1
)

// tableMaxStates bounds the table's virtual state space. The cost of an
// untouched region is its directory entry (a block pointer and a write
// stamp: 10 bytes per 1024 states, 80 MB at the cap), not state bytes.
// Larger shapes are rejected with ErrShapeTooLarge.
const tableMaxStates = 1 << 33

// MaxDPIndex is the largest chain length (in layers) and the largest
// normal-processor count MadPipe-DP plans; larger shapes are rejected
// with ErrShapeTooLarge. With normals clamped to the chain length and
// the grid sizes Discretization.validate admits, it keeps tableStates at
// most 2^54, so the state count never overflows on its way to the
// tableMaxStates check. Exported so API layers (internal/serve) can
// reject such requests at admission, before building a chain or queueing
// a plan.
const MaxDPIndex = 1<<16 - 1

// ErrShapeTooLarge reports a DP shape the table cannot plan: a chain or
// normal-processor count past MaxDPIndex, or more than tableMaxStates
// (2^33) virtual states once normals are clamped to the chain length.
// It is a deterministic property of the request — chain length, worker
// count and grid sizes — checked before any table is sized.
var ErrShapeTooLarge = errors.New("core: DP shape too large")

// clampShape returns the normal-processor count the table plans a chain
// of l layers on — normals clamped to l (see runDPWith) — or
// ErrShapeTooLarge when the shape is past the table's bounds.
func clampShape(l, normals, nT, nM, nV int) (int, error) {
	if l > MaxDPIndex || normals > MaxDPIndex {
		return 0, fmt.Errorf("%w: %d layers and %d normal processors, at most %d each",
			ErrShapeTooLarge, l, normals, MaxDPIndex)
	}
	normals = min(normals, l)
	if n := tableStates(l, normals, nT, nM, nV); n > tableMaxStates {
		return 0, fmt.Errorf("%w: %d virtual states (%d layers, %d normal processors, %dx%dx%d grid), over the limit of 2^33 = %d",
			ErrShapeTooLarge, n, l, normals, nT, nM, nV, tableMaxStates)
	}
	return normals, nil
}

// stampWrap is where the table's epoch stamp restarts: block write
// stamps (dpTable.wrote) hold 16 bits.
const stampWrap = 1 << 16

// dpState is one table state, padded to 32 bytes so two states share a
// cache line and every lookup a cut performs — current value and death
// certificate — lands on a single line (blocks are 32 KB allocations,
// so the padding guarantees that alignment too). The DP's inner loop
// touches millions of child states per probe, so the record's size sets
// both the planner's memory and how many child lookups share a line.
//
// Fields:
//   - period/stamp: the current DP value, present iff stamp equals the
//     table's current stamp.
//   - certThat/certSeen: the death certificate — the largest target
//     period at which the state was proven memory-dead, validated by
//     certSeen against certEpoch.
//   - dec: the reconstruction decision, (k+1)<<1 | special, so k
//     reaches MaxDPIndex.
type dpState struct {
	period   float64
	stamp    uint32
	certSeen uint32
	certThat float64
	dec      uint32
	_        [4]byte // pad 28 -> 32: two states per cache line
}

type dpTable struct {
	stamp  uint32
	states int // fresh entries evaluated under the current stamp

	// blocks[idx>>blockBits] is nil until some state in the block is
	// stored or certified; nAlloc counts resident blocks. Allocated
	// blocks persist across the probes of a lease — they carry the
	// cross-probe certificates — and across resets, until the trim policy
	// drops them on release. wrote[b] is the stamp of the last run that
	// wrote into block b, and runBlocks counts the blocks the current run
	// wrote: a run's reported footprint, independent of what earlier
	// leases left resident.
	blocks    []*[blockSize]dpState
	wrote     []uint16
	nAlloc    int
	runBlocks int

	nL, nP, nT, nM, nV int
	size               int

	// trimHWM is the geometrically decayed high-water demand used by
	// releaseTable's trim policy (see tableTrimFactor). It persists
	// across pool round-trips so alternating big/small leases — the
	// PlanAndSchedule special/contiguous pattern — never thrash the
	// blocks.
	trimHWM int

	// Cross-probe certificates (Algorithm 1 only; see certBegin). certOn
	// arms death certificates on every shape. A death certificate
	// (dpState.certThat) is the largest target period at which the state
	// was proven memory-dead: every cut k failed its memory check
	// outright, with no recourse to child values. Group counts
	// g = ceil((V+U)/T̂) only grow as T̂ shrinks while the stage-memory
	// formula is T̂-independent, so memory-death at T̂ implies
	// memory-death — an infinite DP value — at every T̂' <= T̂. (General
	// value-infeasibility is NOT monotone in T̂, because the ⊕ snapping
	// changes which delay a child sees; death certificates therefore
	// record memory-death only.) Entries are validated against certEpoch
	// so a pooled table never leaks certificates across leases.
	certOn    bool
	certEpoch uint32
	// certMem is the memory limit the live certificate generation was
	// recorded under. Death certificates are statements about the DP at
	// a specific memory limit; certArm re-arms (invalidating them) when
	// a warm lease arrives with a different limit.
	certMem float64
	// certMax is the largest target period recorded by any death
	// certificate this lease — a probe at that > certMax cannot match
	// any, so the hot path skips the per-state load entirely. The
	// certificate records live inside the dpState records themselves.
	certMax float64

	cols  colCache
	hoist hoistCache
}

// tableStates is the packed state count of a DP shape.
func tableStates(l, normals, nT, nM, nV int) int {
	return (l + 1) * (normals + 1) * nT * nM * nV
}

// reset prepares the table for one DP run over the given shape, keeping
// every resident block. Certificates survive resets: with the
// p-outermost index layout their contents stay addressable when only nP
// changes, which is what lets sweep cells at a different worker count
// inherit a warm table.
func (t *dpTable) reset(nL, nP, nT, nM, nV int) {
	if nL != t.nL || nT != t.nT || nM != t.nM || nV != t.nV {
		// The per-p stride changed: every packed index changes meaning,
		// so no certificate recorded under the old layout may be read
		// under the new one. (nP is deliberately absent from the stride —
		// see idx — so worker-count changes do NOT invalidate.)
		t.certEpoch++
	}
	t.nL, t.nP, t.nT, t.nM, t.nV = nL, nP, nT, nM, nV
	t.size = nL * nP * nT * nM * nV
	t.states = 0
	t.runBlocks = 0
	nB := (t.size + blockSize - 1) >> blockBits
	if cap(t.blocks) < nB {
		// Grow the directory over its full old capacity: a shrink only
		// reslices, so tail blocks stay live and a shrink-then-grow
		// round-trip (sweep cells at varying worker counts) keeps every
		// record. Fresh entries hold no block and a zero write stamp,
		// which no run's stamp equals.
		blocks := make([]*[blockSize]dpState, nB)
		copy(blocks, t.blocks[:cap(t.blocks)])
		wrote := make([]uint16, nB)
		copy(wrote, t.wrote[:cap(t.wrote)])
		t.blocks, t.wrote = blocks, wrote
	}
	t.blocks, t.wrote = t.blocks[:nB], t.wrote[:nB]
	t.stamp++
	if t.stamp >= stampWrap {
		// Stamp space exhausted: clear the state stamps of every resident
		// block, in the directory's full capacity, and the write stamps,
		// then restart. Certificate fields are untouched: their
		// validity is tracked by epochs, not stamps. Amortized to nothing
		// (once every 65535 probes per table).
		for _, b := range t.blocks[:cap(t.blocks)] {
			if b == nil {
				continue
			}
			for i := range b {
				b[i].stamp = 0
			}
		}
		clear(t.wrote[:cap(t.wrote)])
		t.stamp = 1
	}
}

// certBegin arms death certificates for the current table lease.
// Certificates are only sound while every probe on the lease shares the
// same chain, platform, discretization and weight policy — exactly the
// shape of one Algorithm 1 run — so only PlanAllocation calls this;
// one-shot DP() runs leave certificates off. Bumping the epoch
// invalidates whatever a previous lease recorded. A PlannerCache lease
// that revives a warm table skips certBegin precisely to keep the store
// alive.
func (t *dpTable) certBegin() {
	t.certOn = true
	t.certMax = 0
	t.certEpoch++
}

// certArm arms death certificates for a lease at the given memory
// limit. A warm table (PlannerCache lease) whose live generation was
// recorded at the same limit resumes — its certificates stay valid,
// which is the whole point of warm leasing; any other case is a fresh
// generation. Chain, platform communication terms, discretization,
// special mode and weight policy are guaranteed equal by the lease key
// (tableKey); the memory limit is the one input the key leaves out.
func (t *dpTable) certArm(mem float64) {
	if t.certOn && t.certMem == mem {
		return
	}
	t.certMem = mem
	t.certBegin()
}

// certDead reports whether idx was proven memory-dead at a target period
// >= that, which makes its DP value infinite at the current probe too.
func (t *dpTable) certDead(idx int, that float64) bool {
	if that > t.certMax {
		return false
	}
	s := t.peek(idx)
	return s != nil && s.certSeen == t.certEpoch && that <= s.certThat
}

// certMark records that idx is memory-dead at target period that.
func (t *dpTable) certMark(idx int, that float64) {
	if !t.certOn {
		return
	}
	if that > t.certMax {
		t.certMax = that
	}
	s := t.slot(idx)
	if s.certSeen == t.certEpoch {
		if that > s.certThat {
			s.certThat = that
		}
		return
	}
	s.certSeen = t.certEpoch
	s.certThat = that
}

// idx packs a state with p as the outermost axis and l innermost. The
// outermost p keeps the packed index independent of nP: a state's
// meaning — prefix l with a remaining budget of p normal processors on
// fixed grids — does not involve the total worker count, so indices stay
// stable across nP and death certificates recorded in one sweep
// cell can be adopted by cells with a different P (the p-range they
// share is exactly the index prefix). The innermost l serves locality:
// a state's cut loop looks up children at l' = k-1 with the same itP and
// imP (normal branch), so the whole child range of one state spans at
// most nV*nL consecutive states — a few cache lines instead of one DRAM
// miss per cut under an l-major order.
func (t *dpTable) idx(l, p, itP, imP, iV int) int {
	return (((p*t.nT+itP)*t.nM+imP)*t.nV+iV)*t.nL + l
}

// peek returns the state at idx for reading, or nil when the state's
// block was never materialized — an untouched block holds neither a
// present entry nor a live certificate, so every reader treats nil as
// absent.
func (t *dpTable) peek(idx int) *dpState {
	b := t.blocks[idx>>blockBits]
	if b == nil {
		return nil
	}
	return &b[idx&blockMask]
}

// slot returns the state at idx for writing, materializing its block on
// first touch and counting the block in runBlocks on the run's first
// write to it.
func (t *dpTable) slot(idx int) *dpState {
	bi := idx >> blockBits
	b := t.blocks[bi]
	if b == nil {
		b = new([blockSize]dpState)
		t.blocks[bi] = b
		t.nAlloc++
	}
	if s := uint16(t.stamp); t.wrote[bi] != s {
		t.wrote[bi] = s
		t.runBlocks++
	}
	return &b[idx&blockMask]
}

func (t *dpTable) get(idx int) (dpEntry, bool) {
	s := t.peek(idx)
	if s == nil || s.stamp != t.stamp {
		return dpEntry{}, false
	}
	return dpEntry{period: s.period, k: int32(s.dec>>1) - 1, special: s.dec&1 != 0}, true
}

// getPeriod is the hot-path lookup: it avoids materializing a dpEntry.
// bound reports a lower-bound entry: a frame that adopted no cut below
// its finite cutoff stores the cutoff with decision 0 (see solve), a
// combination no exact entry has — exact k = -1 entries are +Inf or
// special base cases.
func (t *dpTable) getPeriod(idx int) (period float64, bound, ok bool) {
	s := t.peek(idx)
	if s == nil || s.stamp != t.stamp {
		return 0, false, false
	}
	return s.period, s.dec == 0 && s.period < inf, true
}

// put stores a freshly evaluated entry — exact, or a lower bound — and
// counts it in states: a reopened state counts again.
func (t *dpTable) put(idx int, e dpEntry) {
	t.putAdopted(idx, e)
	t.states++
}

// putAdopted settles a state from a death certificate without counting
// it as newly evaluated work: tab.states (and with it
// DPStats.StatesEvaluated and the probe timeline's States) count fresh
// evaluations only, so warm probes report the work they actually did.
// Certificate hits are tracked separately (StatesCertPruned).
func (t *dpTable) putAdopted(idx int, e dpEntry) {
	d := uint32(e.k+1) << 1
	if e.special {
		d |= 1
	}
	s := t.slot(idx)
	s.period, s.stamp, s.dec = e.period, t.stamp, d
}

// tableTrimFactor bounds a pooled table's retained blocks: when they
// exceed this multiple of the table's recent demand, they are dropped so
// a sweep that once planned a huge configuration does not pin peak
// memory for its remaining lifetime. Demand is a geometrically decayed
// high-water mark rather than the returning lease's own size:
// PlanAndSchedule alternates a full special-mode table with a
// contiguous-mode table whose t_P and m_P axes collapse to one cell
// (~1000x smaller), and trimming on each small release would free and
// reallocate hundreds of megabytes per planner call. With the decay, an
// alternating big/small pattern keeps the mark at the big size, while a
// few consecutive small releases let it halve past the trim threshold.
const tableTrimFactor = 4

var tablePool = sync.Pool{New: func() any { return new(dpTable) }}

// acquireTable leases a table from the arena; pair with releaseTable.
// Each table serves exactly one planner invocation at a time (see the
// package comment for the concurrency invariants). Certificates start
// disarmed on every lease.
func acquireTable() *dpTable {
	t := tablePool.Get().(*dpTable)
	t.certOn = false
	t.certMax = 0 // certDead short-circuits on this before any block load
	return t
}

// releaseTable returns a table to the arena, trimming blocks past
// tableTrimFactor× the table's decayed high-water demand and recording
// the retained footprint. The gauge tracks the high-water bytes of a
// single released table rather than a global pool sum: sync.Pool drops
// tables on GC without notice, so a global accumulator would only drift
// upward.
func releaseTable(t *dpTable, reg *obs.Registry) {
	trimOnRelease(t, reg)
	tablePool.Put(t)
}

// trimOnRelease applies the trim policy and footprint gauge without
// touching the pool, so tests can drive the policy on a private table
// (putting one table into the pool twice would alias concurrent leases).
func trimOnRelease(t *dpTable, reg *obs.Registry) {
	// Demand is the leased shape's virtual size in whole blocks, not its
	// resident blocks: resident blocks include what earlier, larger
	// shapes left behind, which is exactly what the policy reclaims.
	// Rounding up to a block keeps a lease smaller than a block from
	// trimming its own block on every release.
	demand := len(t.blocks) * blockSize
	if hw := t.trimHWM / 2; hw > demand {
		t.trimHWM = hw
	} else {
		t.trimHWM = demand
	}
	if t.nAlloc*blockSize > tableTrimFactor*t.trimHWM {
		t.blocks, t.wrote, t.nAlloc = nil, nil, 0
		t.hoist = hoistCache{}
		if reg != nil {
			reg.Counter("dp_table_trims").Inc()
		}
	}
	if reg != nil {
		reg.Gauge("dp_table_pool_bytes").Observe(uint64(t.retainedBytes()))
	}
}

// stateBytes and entBytes are the record sizes the table's byte
// figures are computed from.
const (
	stateBytes = int(unsafe.Sizeof(dpState{}))
	entBytes   = int(unsafe.Sizeof(colEnt{}))
)

// retainedBytes sums the capacity the table holds onto while pooled.
func (t *dpTable) retainedBytes() int {
	b := t.nAlloc*blockSize*stateBytes + cap(t.blocks)*8 + cap(t.wrote)*2
	cc := &t.cols
	b += cap(cc.dir)*8 + cap(cc.ent)*entBytes + cap(cc.gmax)*4 +
		cap(cc.gmaxSeen)*4 + cap(cc.gmaxCached)*4
	return b
}

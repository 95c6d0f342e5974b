package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/platform"
)

// TestBlockedTableRoundTrip drives the blocked storage directly on a
// paper-grid shape of over a billion virtual states: entries and
// certificates must round-trip through first-touch blocks, untouched
// blocks must stay unallocated (that is the entire point of the layout),
// and the stamp must keep generations apart across resets.
func TestBlockedTableRoundTrip(t *testing.T) {
	tab := new(dpTable)
	tab.reset(3000, 8, 101, 11, 51)
	if tab.nAlloc != 0 {
		t.Fatalf("fresh table has %d resident blocks", tab.nAlloc)
	}

	// Scatter writes across the index space: one state per distinct block.
	idxs := []int{0, tab.size / 7, tab.size / 3, tab.size / 2, tab.size - 1}
	for i, idx := range idxs {
		if _, ok := tab.get(idx); ok {
			t.Fatalf("idx %d readable before any write", idx)
		}
		tab.put(idx, dpEntry{period: float64(i + 1), k: int32(i)})
	}
	if int(tab.nAlloc) != len(idxs) {
		t.Fatalf("nAlloc = %d after %d scattered writes", tab.nAlloc, len(idxs))
	}
	for i, idx := range idxs {
		e, ok := tab.get(idx)
		if !ok || e.period != float64(i+1) || e.k != int32(i) {
			t.Fatalf("idx %d: lost entry %+v (ok=%v)", idx, e, ok)
		}
	}
	// A neighbor inside a resident block is present-as-absent, not a
	// block allocation; a probe into an untouched block must not
	// materialize it.
	if _, ok := tab.get(idxs[1] + 1); ok {
		t.Fatalf("neighbor state readable without a write")
	}
	if s := tab.peek(blockSize + 1); s != nil && tab.blocks[1] == nil {
		t.Fatalf("peek materialized a block")
	}
	if int(tab.nAlloc) != len(idxs) {
		t.Fatalf("reads changed residency: nAlloc = %d", tab.nAlloc)
	}

	// Death certificates live in the same blocks and survive a reset of
	// the same shape, while plain entries do not (stamp advances).
	tab.certBegin()
	tab.certArm(1e9)
	tab.certMark(idxs[2], 42)
	if !tab.certDead(idxs[2], 41) {
		t.Fatalf("certificate not readable back")
	}
	if tab.certDead(idxs[2], 43) {
		t.Fatalf("certificate claims death above its recorded period")
	}
	tab.reset(3000, 8, 101, 11, 51)
	if _, ok := tab.get(idxs[0]); ok {
		t.Fatalf("entry survived reset")
	}
	if !tab.certDead(idxs[2], 41) {
		t.Fatalf("certificate lost across same-shape reset")
	}

	// A shape with another per-p stride and back must not resurrect the
	// old generation's certificates (a stride change bumps certEpoch),
	// although their blocks stay resident throughout.
	tab.reset(4, 2, 3, 2, 3)
	tab.reset(3000, 8, 101, 11, 51)
	if tab.certDead(idxs[2], 41) {
		t.Fatalf("certificate resurrected across a shape change")
	}
	if int(tab.nAlloc) != len(idxs) {
		t.Fatalf("shape changes dropped blocks: nAlloc = %d", tab.nAlloc)
	}
}

// TestBlockedMatchesMapDP: on the paper-sized special-mode grid (45M
// virtual states) the solver must return bit-identical periods,
// allocations and state counts to the map DP.
func TestBlockedMatchesMapDP(t *testing.T) {
	c := chain.Uniform(99, 1e-3, 2e-3, 2e7, 4e6)
	pl := plat(4, 24e9, 12e9)
	disc := Discretization{TP: 101, MP: 11, V: 101}
	that := c.TotalU() / 4

	blocked, err := runDP(c, pl, that, dpConfig{disc: disc})
	if err != nil {
		t.Fatalf("blocked: %v", err)
	}
	legacy, err := runDPMap(c, pl, that, disc, false, chain.WeightPolicy{})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if blocked.Period != legacy.Period || blocked.States != legacy.States {
		t.Fatalf("blocked (period %g, %d states) != map (period %g, %d states)",
			blocked.Period, blocked.States, legacy.Period, legacy.States)
	}
	if (blocked.Alloc == nil) != (legacy.Alloc == nil) {
		t.Fatalf("feasibility mismatch")
	}
	if blocked.Alloc != nil {
		if err := blocked.Alloc.Validate(); err != nil {
			t.Fatalf("allocation invalid: %v", err)
		}
		for i := range blocked.Alloc.Spans {
			if blocked.Alloc.Spans[i] != legacy.Alloc.Spans[i] || blocked.Alloc.Procs[i] != legacy.Alloc.Procs[i] {
				t.Fatalf("stage %d differs", i)
			}
		}
	}
}

// TestIndexWidthBoundaries pins the packed-index arithmetic at the
// historical and structural width boundaries: 255/256 (the old 8-bit
// packing bug), 1024/1025 (the column cache's colMaxL cliff), 4096
// (well past every per-field byte boundary in dpState and colEnt),
// 16,382/16,383 (either side of the old 14-bit decision field) and
// 32,768 (past int16). Table solver vs map DP, bit-identical.
//
// The long chains plan on P = 2 over a 2x2x2 grid: one normal processor
// makes every normal child a base case and the two-point t_P grid
// prices every special child at TotalU, so each probe is linear in L
// while the chosen cut still lands near L/2.
func TestIndexWidthBoundaries(t *testing.T) {
	lengths := []int{255, 256, 1024, 1025, 4096, 16382, 16383, 32768}
	for _, L := range lengths {
		c := chain.Uniform(L, 1e-3, 2e-3, 1e6, 1e6)
		pl := plat(4, 1e12, 1e12)
		disc := Discretization{TP: 5, MP: 3, V: 9}
		if L > 4096 {
			pl.Workers, disc = 2, Discretization{TP: 2, MP: 2, V: 2}
		}
		that := c.TotalU() / float64(pl.Workers)

		got, err := runDP(c, pl, that, dpConfig{disc: disc})
		if err != nil {
			t.Fatalf("L=%d: table: %v", L, err)
		}
		legacy, err := runDPMap(c, pl, that, disc, false, chain.WeightPolicy{})
		if err != nil {
			t.Fatalf("L=%d: map: %v", L, err)
		}
		if got.Period != legacy.Period || got.States != legacy.States {
			t.Fatalf("L=%d: table (period %g, %d states) != map (period %g, %d states)",
				L, got.Period, got.States, legacy.Period, legacy.States)
		}
		if got.Alloc == nil {
			t.Fatalf("L=%d: expected feasible allocation", L)
		}
		if err := got.Alloc.Validate(); err != nil {
			t.Fatalf("L=%d: allocation invalid: %v", L, err)
		}
		last := got.Alloc.Spans[len(got.Alloc.Spans)-1]
		if got.Alloc.Spans[0].From != 1 || last.To != L {
			t.Fatalf("L=%d: spans do not cover the chain: %v", L, got.Alloc.Spans)
		}
		for i := range got.Alloc.Spans {
			if got.Alloc.Spans[i] != legacy.Alloc.Spans[i] {
				t.Fatalf("L=%d: stage %d differs", L, i)
			}
		}
	}
}

// heavyTailChain is n layers of UF/UB = 1e-6/2e-6 s whose last layer is
// 1/2 s: on two processors the best plan puts the heavy layer alone on
// the normal processor and the light prefix on the special one, so the
// root's decision is the cut k = n.
func heavyTailChain(n int) *chain.Chain {
	layers := make([]chain.Layer, n)
	for i := range layers {
		layers[i] = chain.Layer{UF: 1e-6, UB: 2e-6, W: 1e6, A: 1e6}
	}
	layers[n-1].UF, layers[n-1].UB = 1, 2
	return chain.MustNew("heavy-tail", 1e6, layers)
}

// TestCutPastLayer32767: a decision past layer 32,767 round-trips through
// the table. The decision used to be an int16, so on the 32,769-layer
// chain the cut at its last layer wrapped negative and reconstruction
// failed ("hit base entry with p=1") within milliseconds, while the
// 32,767-layer twin planned.
func TestCutPastLayer32767(t *testing.T) {
	for _, n := range []int{32767, 32769} {
		c := heavyTailChain(n)
		res, err := PlanAllocation(c, plat(2, 1e13, 1e12), Options{
			Disc: Discretization{TP: 2, MP: 2, V: 2}, Iterations: 1, Parallel: 1,
		})
		if err != nil {
			t.Fatalf("%d layers: %v", n, err)
		}
		spans := res.Alloc.Spans
		if last := spans[len(spans)-1]; last != (chain.Span{From: n, To: n}) {
			t.Fatalf("%d layers: last stage %v, want the heavy layer alone as [%d, %d]", n, last, n, n)
		}
	}
}

// TestNormalsClampedToChain: with more normal processors than layers the
// table plans on normals == L (T(l, p, ·) does not depend on p once
// p >= l), and a 24-layer chain on 7,000 workers at the paper's grid
// returns the unclamped map reference's period, spans and processors —
// the special processor keeps its index P-1 — on a table sized for the
// clamped shape. One platform is communication-bound (8 stages), the
// other memory-bound (24 stages).
func TestNormalsClampedToChain(t *testing.T) {
	c := chain.Random(rand.New(rand.NewSource(7)), 24, chain.DefaultRandomOptions())
	disc := DefaultDiscretization()
	that := c.TotalU() / 24 * 1.5
	for _, pl := range []platform.Platform{plat(7000, 1e12, 1e9), plat(7000, 32e9, 12e9)} {
		got, err := runDP(c, pl, that, dpConfig{disc: disc})
		if err != nil {
			t.Fatalf("table: %v", err)
		}
		ref, err := runDPMap(c, pl, that, disc, false, chain.WeightPolicy{})
		if err != nil {
			t.Fatalf("map: %v", err)
		}
		if got.Alloc == nil || ref.Alloc == nil {
			t.Fatalf("%+v: want a feasible plan on both sides: table %v, map %v", pl, got.Period, ref.Period)
		}
		sameDP(t, fmt.Sprintf("%+v", pl), got, ref)
		if want := uint64(tableStates(24, 24, disc.TP, disc.MP, disc.V) * stateBytes); got.Stats.TableVirtualBytes != want {
			t.Fatalf("%+v: table sized %d bytes, want the clamped shape's %d", pl, got.Stats.TableVirtualBytes, want)
		}
		t.Logf("%+v: period %g, %d stages; %d table states, %d map states", pl, got.Period, len(got.Alloc.Spans), got.States, ref.States)
	}
}

// TestBlockedMatchesMapAtWidths: on blocked tables the solver and the
// map reference must agree bit-for-bit on period, state count,
// feasibility and allocation at every tested chain length — both sides
// of the 255/256 packing boundary (column cache on) and of the colMaxL
// cliff (cut scalars recomputed inline), up to raw transformer scale.
//
// The grids are small because production-sized grids put the map
// reference minutes past any reasonable test budget, while block
// indexing is identical at any block count. TestBlockedMatchesMapDP
// keeps a production-grid case; the tight-memory case here keeps the
// death-certificate (memory-infeasible cut) paths in the mix.
func TestBlockedMatchesMapAtWidths(t *testing.T) {
	cases := []struct {
		L     int
		disc  Discretization
		tight bool
	}{
		{255, Discretization{TP: 7, MP: 5, V: 7}, false},
		{255, Discretization{TP: 7, MP: 5, V: 7}, true},
		{256, Discretization{TP: 7, MP: 5, V: 7}, false},
		{1025, Discretization{TP: 5, MP: 5, V: 5}, false},
		{2050, Discretization{TP: 5, MP: 5, V: 5}, false},
	}
	for _, tc := range cases {
		start := time.Now()
		c := chain.Uniform(tc.L, 1e-3, 2e-3, 2e7, 4e6)
		// Loose memory keeps both solvers' reachable sets small (the m_P
		// axis collapses); the tight case runs memory at 12x the fixed
		// weights (the TestBlockedMatchesMapDP ratio) so stage packing and
		// memory-death certificates engage too.
		pl := plat(4, 1e12, 1e12)
		if tc.tight {
			pl = plat(4, float64(tc.L)*2.4e8, 12e9)
		}
		that := c.TotalU() / 4 * 1.1

		ref, err := runDPMap(c, pl, that, tc.disc, false, chain.WeightPolicy{})
		if err != nil {
			t.Fatalf("L=%d: map: %v", tc.L, err)
		}
		got, err := runDP(c, pl, that, dpConfig{disc: tc.disc})
		if err != nil {
			t.Fatalf("L=%d: blocked: %v", tc.L, err)
		}
		if got.Period != ref.Period || got.States != ref.States {
			t.Fatalf("L=%d: blocked (period %g, %d states) != map (period %g, %d states)",
				tc.L, got.Period, got.States, ref.Period, ref.States)
		}
		if (got.Alloc == nil) != (ref.Alloc == nil) {
			t.Fatalf("L=%d: feasibility mismatch vs map", tc.L)
		}
		if got.Alloc != nil {
			for i := range got.Alloc.Spans {
				if got.Alloc.Spans[i] != ref.Alloc.Spans[i] || got.Alloc.Procs[i] != ref.Alloc.Procs[i] {
					t.Fatalf("L=%d: stage %d differs from map", tc.L, i)
				}
			}
		}
		t.Logf("L=%d: %d states, %s", tc.L, got.States, time.Since(start).Round(time.Millisecond))
	}
}

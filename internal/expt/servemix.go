package expt

import (
	"fmt"

	"madpipe/internal/nets"
	"madpipe/internal/serve"
)

// ServingMix returns a deterministic /v1/plan request stream shaped
// like the paper's evaluation traffic (Fig 6/7): hot cells cycle a
// small memory ladder on one network — every contact after the first
// should hit the plan memo — and every coldEvery-th request is a
// never-repeated cell (a unique memory limit), which must plan cold in
// the memo but still shares warm DP tables, since the planner's table
// keys exclude the memory limit.
//
// The stream is a pure function of (netName, n, coldEvery): replaying
// it against a fresh daemon always produces the same hit/miss split
// (len(hotLadder) + floor(n/coldEvery) misses when n > 0), which is
// what lets the serving benchmark gate misses/op exactly.
//
// CNN profiles plan through the greedy MaxChain=24 pass the paper's
// figures use. Transformer presets (gpt2, gpt2-xl, llama7b) instead
// plan through exact run coarsening (CoarsenGroup=8) on a memory ladder
// sized for their weight footprint — the request shape cmd/madpipeload
// sends with -net gpt2.
func ServingMix(netName string, n, coldEvery int) ([]serve.PlanRequest, error) {
	if n < 0 || coldEvery < 0 {
		return nil, fmt.Errorf("expt: ServingMix(n=%d, coldEvery=%d): negative argument", n, coldEvery)
	}
	hotLadder := []float64{6, 8, 10, 12} // GB, the Fig 7 ladder's interior
	opts := serve.OptionsSpec{MaxChain: 24, Parallel: 1}
	coldBase := 8.0
	if _, ok := nets.TransformerPreset(netName); ok {
		hotLadder = []float64{24, 32, 40, 48}
		opts = serve.OptionsSpec{CoarsenGroup: 8, Parallel: 1}
		coldBase = 32
	}
	reqs := make([]serve.PlanRequest, 0, n)
	cold := 0
	for i := 0; i < n; i++ {
		memGB := hotLadder[i%len(hotLadder)]
		if coldEvery > 0 && i%coldEvery == coldEvery-1 {
			cold++
			memGB = coldBase + 1e-4*float64(cold)
		}
		reqs = append(reqs, serve.PlanRequest{
			Net:      &serve.NetSpec{Name: netName, Batch: 8, Size: 1000},
			Platform: serve.PlatformSpec{Workers: 4, MemoryGB: memGB, BandwidthGB: 12},
			Options:  opts,
		})
	}
	return reqs, nil
}

// ServingMixRaw returns the raw (uncoarsened) transformer counterpart
// of ServingMix: op-granularity chains planned as sent, the request
// shape cmd/madpipeload sends with -net gpt2 -raw. The 8-worker
// platform pushes each probe's DP table past the blocked-storage
// threshold, options.parallel stays unset so the daemon's
// Config.LargeParallel default decides the worker budget (the probe
// fan end to end), and a two-probe iteration budget keeps a request's latency bounded by
// one concurrent round of two raw DP solves — about half a second on a
// 2-vCPU host, not the milliseconds of the coarsened mix, so callers
// should size n accordingly.
//
// Like ServingMix, the stream is a pure function of its arguments, so
// hit/miss splits replay exactly.
func ServingMixRaw(netName string, n, coldEvery int) ([]serve.PlanRequest, error) {
	if n < 0 || coldEvery < 0 {
		return nil, fmt.Errorf("expt: ServingMixRaw(n=%d, coldEvery=%d): negative argument", n, coldEvery)
	}
	if _, ok := nets.TransformerPreset(netName); !ok {
		return nil, fmt.Errorf("expt: ServingMixRaw(%q): raw mixes need a transformer preset (gpt2, gpt2-xl, llama7b)", netName)
	}
	// The ladder matches TestTransformerLongChainPlan's regime: raw
	// op-granularity chains hold per-op activation state, so the
	// feasible band sits in the TB range at 300 GB/s.
	hotLadder := []float64{2000, 2400}
	coldBase := 2200.0
	reqs := make([]serve.PlanRequest, 0, n)
	cold := 0
	for i := 0; i < n; i++ {
		memGB := hotLadder[i%len(hotLadder)]
		if coldEvery > 0 && i%coldEvery == coldEvery-1 {
			cold++
			memGB = coldBase + 1e-4*float64(cold)
		}
		// The special-mode 21x5x21 grid keeps a raw 2050-layer probe
		// round near half a second on 2 vCPUs (the default 101x11x51
		// grid has 26x the points per layer and processor count), and a
		// two-probe iteration budget makes each miss's first bracket
		// round fan out two concurrent probes, so the mix exercises the
		// blocked-parallel path without unbounded latency. The serving
		// properties under test (fingerprinting, memo splits, the
		// LargeParallel default, blocked-table gauges) are independent of
		// the search depth.
		reqs = append(reqs, serve.PlanRequest{
			Net:      &serve.NetSpec{Name: netName, Batch: 8, Size: 1000, Blocks: 256, Granularity: 8},
			Platform: serve.PlatformSpec{Workers: 8, MemoryGB: memGB, BandwidthGB: 300},
			Options:  serve.OptionsSpec{Iterations: 2, DiscTP: 21, DiscMP: 5, DiscV: 21},
		})
	}
	return reqs, nil
}

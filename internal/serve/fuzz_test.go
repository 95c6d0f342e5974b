package serve

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/core"
	"madpipe/internal/platform"
)

// FuzzKeyPlan drives Server.keyPlan — decode, resolve, fingerprint —
// with arbitrary /v1/plan bodies. No body may panic. A body it accepts
// must resolve to 1 ≤ workers ≤ core.MaxDPIndex, a valid grid and finite
// compute and communication totals, and must key identically when keyed
// again. The seeds are every body TestServeBadRequests rejects plus two
// valid requests (an inline chain with a custom grid, and a preset), so
// plain `go test` runs them.
func FuzzKeyPlan(f *testing.F) {
	bad := badPlanBodies()
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add([]byte(bad[name]))
	}
	for _, tc := range badFrontierCases() {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(mustJSON(PlanRequest{Chain: testChain(8, 1),
		Platform: PlatformSpec{Workers: 4, Memory: 8e9, Bandwidth: 1.2e10},
		Options:  OptionsSpec{Iterations: 8, DiscTP: 4, DiscMP: 4, DiscV: 4}})))
	f.Add([]byte(`{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12},"schedule":true}`))

	s := NewServer(Config{Workers: 1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		key, j, err := s.keyPlan(body)
		if err != nil {
			return
		}
		pj := j.(*planJob)
		checkResolved(t, pj.c, pj.plat, pj.opts)
		again, _, err := s.keyPlan(body)
		if err != nil || again != key {
			t.Fatalf("keyed twice: %v then %v (err %v)", key, again, err)
		}
	})
}

// FuzzKeyFrontier is FuzzKeyPlan's counterpart for /v1/frontier: it
// drives Server.keyFrontier with arbitrary bodies. No body may panic. A
// body it accepts must resolve to 1 ≤ workers ≤ core.MaxDPIndex, a
// valid grid, finite compute and communication totals and a ladder of 1
// to MaxFrontierMems finite, positive rungs, and must key identically
// when keyed again. The seeds are every body TestServeBadRequests
// rejects on /v1/frontier plus two valid ladders (an inline chain in
// bytes, and a preset in GB).
func FuzzKeyFrontier(f *testing.F) {
	for _, tc := range badFrontierCases() {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(frontierBody([]float64{8e9, 6e9, 4e9}, nil)))
	f.Add([]byte(`{"net":{"name":"resnet50"},"platform":{"workers":4,"bandwidth_gb":12},"options":{"disc_tp":8,"disc_mp":4,"disc_v":8},"mems_gb":[16,12,8,4]}`))

	s := NewServer(Config{Workers: 1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		key, j, err := s.keyFrontier(body)
		if err != nil {
			return
		}
		fj := j.(*frontierJob)
		checkResolved(t, fj.c, fj.plat, fj.opts)
		if n := len(fj.mems); n < 1 || n > MaxFrontierMems {
			t.Fatalf("accepted a ladder of %d rungs, want 1 to %d", n, MaxFrontierMems)
		}
		for i, m := range fj.mems {
			if !(m > 0) || math.IsInf(m, 1) {
				t.Fatalf("accepted rung %d = %g bytes", i, m)
			}
		}
		again, _, err := s.keyFrontier(body)
		if err != nil || again != key {
			t.Fatalf("keyed twice: %v then %v (err %v)", key, again, err)
		}
	})
}

// checkResolved fails t unless an accepted request resolved to
// 1 ≤ workers ≤ core.MaxDPIndex, a valid grid and finite compute and
// communication totals.
func checkResolved(t *testing.T, c *chain.Chain, plat platform.Platform, opts core.Options) {
	t.Helper()
	if w := plat.Workers; w < 1 || w > core.MaxDPIndex {
		t.Fatalf("accepted workers %d outside [1, %d]", w, core.MaxDPIndex)
	}
	if err := opts.Normalized().Disc.Validate(); err != nil {
		t.Fatalf("accepted an invalid grid: %v", err)
	}
	u := c.TotalU()
	comm := c.TotalCommTimeAlphaBeta(plat.Latency, plat.Bandwidth)
	if math.IsInf(u+comm, 0) || math.IsNaN(u+comm) {
		t.Fatalf("accepted non-finite costs: compute %g, communication %g", u, comm)
	}
}

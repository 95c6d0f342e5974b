package serve

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"madpipe/internal/core"
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
		if w := pj.plat.Workers; w < 1 || w > core.MaxDPIndex {
			t.Fatalf("accepted workers %d outside [1, %d]", w, core.MaxDPIndex)
		}
		if err := pj.opts.Normalized().Disc.Validate(); err != nil {
			t.Fatalf("accepted an invalid grid: %v", err)
		}
		u := pj.c.TotalU()
		comm := pj.c.TotalCommTimeAlphaBeta(pj.plat.Latency, pj.plat.Bandwidth)
		if math.IsInf(u+comm, 0) || math.IsNaN(u+comm) {
			t.Fatalf("accepted non-finite costs: compute %g, communication %g", u, comm)
		}
		again, _, err := s.keyPlan(body)
		if err != nil || again != key {
			t.Fatalf("keyed twice: %v then %v (err %v)", key, again, err)
		}
	})
}
